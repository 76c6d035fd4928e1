//! Property-based tests for the simulator's invariants.

use hat_obs::Histogram;
use hat_sim::{
    Actor, Ctx, Engine, EngineConfig, LatencyModel, NodeId, Partition, PartitionSchedule, Region,
    SimDuration, SimTime, Site, Topology,
};
use proptest::prelude::*;

/// An actor that relays each received token to a fixed next hop,
/// recording the times at which it held the token.
struct Relay {
    next: NodeId,
    hops_left: u32,
    seen: Vec<SimTime>,
}

impl Actor for Relay {
    type Msg = ();
    fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
        self.seen.push(ctx.now());
        if self.hops_left > 0 {
            self.hops_left -= 1;
            ctx.send(self.next, ());
        }
    }
}

fn ring(n: usize, seed: u64, partitions: PartitionSchedule) -> Engine<Relay> {
    let mut topo = Topology::new();
    let regions = [
        Region::Virginia,
        Region::Oregon,
        Region::Ireland,
        Region::Tokyo,
    ];
    for i in 0..n {
        topo.add_node(Site::new(regions[i % regions.len()], (i % 3) as u8));
    }
    let actors = (0..n)
        .map(|i| Relay {
            next: ((i + 1) % n) as NodeId,
            hops_left: 64,
            seen: Vec::new(),
        })
        .collect();
    let cfg = EngineConfig {
        seed,
        partitions,
        ..EngineConfig::default()
    };
    Engine::new(cfg, topo, actors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Simulated time never runs backwards, for arbitrary seeds and ring
    /// sizes, and identical seeds give identical traces.
    #[test]
    fn time_is_monotone_and_deterministic(seed in 0u64..5000, n in 2usize..8) {
        let run = |seed| {
            let mut e = ring(n, seed, PartitionSchedule::none());
            e.with_actor_ctx(0, |_a, ctx| ctx.send(1 % n as NodeId, ()));
            e.run_to_quiescence();
            (0..n).map(|i| e.actor(i as NodeId).seen.clone()).collect::<Vec<_>>()
        };
        let a = run(seed);
        for times in &a {
            for w in times.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
        prop_assert_eq!(a, run(seed));
    }

    /// A total partition between two halves stops all cross-half
    /// delivery during its window.
    #[test]
    fn partitions_block_exactly_the_cut(seed in 0u64..1000) {
        let n = 6usize;
        // partition nodes {0,1,2} from {3,4,5} forever
        let schedule = PartitionSchedule::from_partitions(vec![Partition::forever(
            SimTime::ZERO,
            [0u32, 1, 2],
            [3u32, 4, 5],
        )]);
        let mut e = ring(n, seed, schedule);
        e.with_actor_ctx(0, |_a, ctx| ctx.send(1, ()));
        e.run_to_quiescence();
        // the token moves 0->1->2 then dies at the cut (2->3 dropped)
        prop_assert!(!e.actor(1).seen.is_empty());
        prop_assert!(!e.actor(2).seen.is_empty());
        for i in 3..6 {
            prop_assert!(e.actor(i).seen.is_empty(), "node {i} crossed the cut");
        }
        prop_assert!(e.net_stats().dropped >= 1);
    }

    /// Latency samples are strictly positive and the histogram's
    /// quantiles are monotone in q.
    #[test]
    fn latency_and_histogram_sanity(seed in 0u64..5000) {
        use rand::SeedableRng;
        let model = LatencyModel::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = Histogram::for_latency_ms();
        for _ in 0..200 {
            let s = model.sample_rtt_ms(
                hat_sim::LinkClass::CrossRegion(hat_sim::RegionPair(
                    Region::Virginia,
                    Region::Oregon,
                )),
                &mut rng,
            );
            prop_assert!(s > 0.0);
            h.record(s);
        }
        let qs = [0.1, 0.5, 0.9, 0.99];
        for w in qs.windows(2) {
            prop_assert!(h.quantile(w[0]) <= h.quantile(w[1]));
        }
    }

    /// Engine ordering: messages sent with `send_after` never arrive
    /// before their hold elapses.
    #[test]
    fn send_after_holds_messages(hold_ms in 1u64..500) {
        struct Holder { hold: SimDuration, got_at: Option<SimTime> }
        impl Actor for Holder {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.self_id == 0 {
                    ctx.send_after(self.hold, 1, ());
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _f: NodeId, _m: ()) {
                self.got_at = Some(ctx.now());
            }
        }
        let mut topo = Topology::new();
        topo.add_node(Site::new(Region::Virginia, 0));
        topo.add_node(Site::new(Region::Virginia, 0));
        let hold = SimDuration::from_millis(hold_ms);
        let mut e = Engine::new(
            EngineConfig::default(),
            topo,
            vec![
                Holder { hold, got_at: None },
                Holder { hold, got_at: None },
            ],
        );
        e.run_to_quiescence();
        let got = e.actor(1).got_at.expect("delivered");
        prop_assert!(got >= SimTime::ZERO + hold, "arrived {got} before hold {hold}");
    }
}
