type t = { name : string; title : string; report : quick:bool -> seeds:int -> string }

let all =
  let entry name title report = { name; title; report } in
  [
    entry "table4" "Table 4: VMA and PD operation latencies" (fun ~quick ~seeds:_ ->
        Table4.report ~iters:(if quick then 1500 else 4000) ());
    entry "fig9" "Figure 9: p99 latency vs load (NightCore / Jord / Jord_NI)"
      (fun ~quick ~seeds -> Fig9.report ~quick ~seeds ());
    entry "fig10" "Figure 10: CDF of function service time in Jord" (fun ~quick ~seeds:_ ->
        Fig10.report ~quick ());
    entry "fig11" "Figure 11: service-time breakdown of the selected functions"
      (fun ~quick ~seeds:_ -> Fig11.report ~quick ());
    entry "fig12" "Figure 12: sensitivity to I-VLB / D-VLB entries" (fun ~quick ~seeds:_ ->
        Fig12.report ~quick ());
    entry "fig13" "Figure 13: Jord vs Jord_BT (B-tree VMA table)" (fun ~quick ~seeds:_ ->
        Fig13.report ~quick ());
    entry "fig14" "Figure 14: scalability with system size" (fun ~quick ~seeds:_ ->
        Fig14.report ~quick ());
    entry "background" "Background (paper 2.1): the FaaS overhead ladder"
      (fun ~quick:_ ~seeds:_ -> Background.report ());
    entry "motivation" "Motivation (paper 2.2): page-based VM vs Jord's PrivLib"
      (fun ~quick ~seeds:_ -> Motivation.report ~iters:(if quick then 100 else 300) ());
    entry "claims" "Paper-claim checklist (programmatic verification)" (fun ~quick ~seeds:_ ->
        Claims.report ~quick ());
    entry "ablation" "Ablations (beyond the paper): dispatch policy, grouping, queues"
      (fun ~quick ~seeds:_ -> Ablations.report ~quick ());
  ]

let names = List.map (fun e -> e.name) all
let find name = List.find_opt (fun e -> e.name = name) all
