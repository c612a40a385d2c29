use popflow_core::{nested_loop, FlowConfig, PresenceEngine, TkPlQuery};
use popflow_eval::{kendall_tau, Lab};

fn main() {
    let lab = Lab::real_analog();
    let qs = lab.query_fraction(1.0, 1);
    let iv = lab.random_window(30, 99);
    let query = TkPlQuery::new(qs.len(), qs.clone(), iv);
    let gt = lab.world.ground_truth_topk(iv, qs.slocs(), qs.len());
    let cfg = FlowConfig {
        engine: PresenceEngine::Hybrid,
        ..FlowConfig::default()
    };
    let space = &lab.world.space;
    let out = nested_loop(space, lab.iupt(), &query, &cfg).unwrap();
    println!(
        "{:<12} {:>8}   ||   {:<12} {:>8}",
        "flow-rank", "value", "gt-rank", "count"
    );
    for (a, b) in out.ranking.iter().zip(gt.iter()) {
        println!(
            "{:<12} {:>8.2}   ||   {:<12} {:>8.0}",
            space.sloc(a.sloc).name,
            a.flow,
            space.sloc(b.0).name,
            b.1
        );
    }
    let tau_full = kendall_tau(
        &out.topk_slocs(),
        &gt.iter().map(|x| x.0).collect::<Vec<_>>(),
    );
    println!("full-ranking tau = {tau_full:.3}");
}
