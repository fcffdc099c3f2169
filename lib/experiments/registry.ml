type t = { id : string; title : string; run : Ctx.t -> Plookup_util.Table.t }

let all =
  [ { id = Exp_table1.id; title = Exp_table1.title; run = Exp_table1.run };
    { id = Exp_fig4.id; title = Exp_fig4.title; run = Exp_fig4.run };
    { id = Exp_fig6.id; title = Exp_fig6.title; run = Exp_fig6.run };
    { id = Exp_fig7.id; title = Exp_fig7.title; run = Exp_fig7.run };
    { id = Exp_fig9.id; title = Exp_fig9.title; run = Exp_fig9.run };
    { id = Exp_fig12.id; title = Exp_fig12.title; run = Exp_fig12.run };
    { id = Exp_fig13.id; title = Exp_fig13.title; run = Exp_fig13.run };
    { id = Exp_fig14.id; title = Exp_fig14.title; run = Exp_fig14.run };
    { id = Exp_table2.id; title = Exp_table2.title; run = Exp_table2.run };
    { id = Exp_hotspot.id; title = Exp_hotspot.title; run = Exp_hotspot.run };
    { id = Exp_churn.id; title = Exp_churn.title; run = Exp_churn.run };
    { id = Exp_latency.id; title = Exp_latency.title; run = Exp_latency.run };
    { id = Exp_loss.id; title = Exp_loss.title; run = Exp_loss.run };
    { id = Exp_day.id; title = Exp_day.title; run = Exp_day.run } ]
  @ List.map (fun (id, title, run) -> { id; title; run }) Exp_ablation.all

let find id = List.find_opt (fun e -> String.equal e.id id) all
let ids () = List.map (fun e -> e.id) all
