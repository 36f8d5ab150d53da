//! One `&PreparedQuery` shared by real worker threads.
//!
//! `Runtime::with_workers(3)` skips the detected-parallelism clamp, so the
//! probes below run on three OS threads even on a 1-CPU host. Each
//! concurrent evaluation checks a scratch set out of the query's pool;
//! the answers, the summed demand counters and the pool size must come
//! out exactly as a 1-worker pass predicts.

use gdx_graph::Graph;
use gdx_nre::parse::parse_nre;
use gdx_query::{NodeBindings, PreparedQuery};
use gdx_runtime::Runtime;

/// The compile-time half of the contract: a prepared query crosses and is
/// shared between threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedQuery>();
};

/// Six distinct graphs: an `f`-chain from `c0` of growing length, with an
/// `h` edge hanging off every other node, so the nesting test `[h]`
/// decides differently along each chain. The chains are long enough that
/// concurrent probes overlap and the pool really holds several sets.
fn graphs() -> Vec<Graph> {
    (3000..3006)
        .map(|len| {
            let mut g = Graph::new();
            let nodes: Vec<_> = (0..=len).map(|i| g.add_const(&format!("c{i}"))).collect();
            for (i, w) in nodes.windows(2).enumerate() {
                g.add_edge_labelled(w[0], "f", w[1]);
                if i % 2 == 1 {
                    let hotel = g.add_const(&format!("h{i}"));
                    g.add_edge_labelled(w[1], "h", hotel);
                }
            }
            g
        })
        .collect()
}

const QUERY: &str = "(\"c0\", f.f*.[h], y)";

fn pass(rt: &Runtime, q: &PreparedQuery, graphs: &[Graph]) -> Vec<NodeBindings> {
    rt.par_map(graphs, |_, g| q.evaluate(g).expect("valid query"))
}

#[test]
fn shared_query_matches_a_one_worker_pass() {
    let graphs = graphs();
    let r = parse_nre("f.f*.[h]").expect("static NRE");

    let sequential = PreparedQuery::parse(QUERY).expect("static query");
    let expected = pass(&Runtime::sequential(), &sequential, &graphs);
    let expected_stats = sequential.demand_stats(&r).expect("demand atom");
    assert!(
        expected_stats.visited > 0,
        "the probe takes the demand path"
    );
    assert!(expected.iter().any(|rows| !rows.is_empty()));

    let shared = PreparedQuery::parse(QUERY).expect("static query");
    let got = pass(&Runtime::with_workers(3), &shared, &graphs);
    assert_eq!(got, expected, "rows differ from the 1-worker pass");
    assert_eq!(
        shared.demand_stats(&r),
        Some(expected_stats),
        "demand counters summed over the pool differ from the 1-worker pass"
    );
    let sets = shared.pooled_scratch_sets();
    assert!(
        (1..=3).contains(&sets),
        "3 workers may leave at most 3 scratch sets, found {sets}"
    );

    // The pool stays warm: a second shared pass answers the same.
    assert_eq!(pass(&Runtime::with_workers(3), &shared, &graphs), expected);
    assert!(shared.pooled_scratch_sets() <= 3);
}
