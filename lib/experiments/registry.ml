type t = { id : string; title : string; run : Ctx.t -> Plookup_util.Table.t }

let all =
  [ { id = Exp_table1.id; title = Exp_table1.title; run = (fun ctx -> Exp_table1.run ctx) };
    { id = Exp_fig4.id; title = Exp_fig4.title; run = (fun ctx -> Exp_fig4.run ctx) };
    { id = Exp_fig6.id; title = Exp_fig6.title; run = (fun ctx -> Exp_fig6.run ctx) };
    { id = Exp_fig7.id; title = Exp_fig7.title; run = (fun ctx -> Exp_fig7.run ctx) };
    { id = Exp_fig9.id; title = Exp_fig9.title; run = (fun ctx -> Exp_fig9.run ctx) };
    { id = Exp_fig12.id; title = Exp_fig12.title; run = (fun ctx -> Exp_fig12.run ctx) };
    { id = Exp_fig13.id; title = Exp_fig13.title; run = (fun ctx -> Exp_fig13.run ctx) };
    { id = Exp_fig14.id; title = Exp_fig14.title; run = (fun ctx -> Exp_fig14.run ctx) };
    { id = Exp_table2.id; title = Exp_table2.title; run = (fun ctx -> Exp_table2.run ctx) };
    { id = Exp_hotspot.id; title = Exp_hotspot.title; run = (fun ctx -> Exp_hotspot.run ctx) };
    { id = Exp_churn.id; title = Exp_churn.title; run = (fun ctx -> Exp_churn.run ctx) };
    { id = Exp_latency.id; title = Exp_latency.title; run = (fun ctx -> Exp_latency.run ctx) };
    { id = Exp_loss.id; title = Exp_loss.title; run = (fun ctx -> Exp_loss.run ctx) };
    { id = Exp_day.id; title = Exp_day.title; run = (fun ctx -> Exp_day.run ctx) } ]
  @ List.map (fun (id, title, run) -> { id; title; run }) Exp_ablation.all

let find id = List.find_opt (fun e -> String.equal e.id id) all
let ids () = List.map (fun e -> e.id) all
