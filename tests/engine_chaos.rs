//! Deterministic fault injection for the serving engine: every
//! [`EngineError`] variant is constructed on purpose by a seeded
//! [`ChaosConfig`] schedule (or an engine misuse the chaos path makes
//! reachable), the injected faults are visible in `stats().chaos`, and —
//! the core guarantee — a request that *completes* under chaos returns
//! bits identical to the same request on a chaos-free engine. Faults
//! churn resources and surface typed errors; they never corrupt results.

use std::sync::Arc;
use std::time::Duration;

use merge_path_sparse::engine::{
    ChaosConfig, ChaosCounters, Engine, EngineConfig, EngineError, EngineOutput, Service,
    ServiceConfig, TenantId, Ticket,
};
use merge_path_sparse::prelude::*;
use mps_testkit::strategies::sprinkled;

fn device() -> Device {
    Device::titan()
}

fn matrix(seed: u64) -> Arc<CsrMatrix> {
    Arc::new(sprinkled(80, 64, 2, 4, seed))
}

fn operand(cols: usize, slot: usize) -> Vec<f64> {
    (0..cols)
        .map(|i| 0.5 + ((i * 3 + slot * 13) % 11) as f64 * 0.25)
        .collect()
}

fn chaos_engine(chaos: ChaosConfig) -> Engine {
    let cfg = EngineConfig::builder()
        .chaos(chaos)
        .build()
        .expect("valid config");
    Engine::with_config(&device(), cfg)
}

/// `reject_submit_p = 1` refuses every admission with `Overloaded`
/// regardless of actual queue depth, and the forced rejections are
/// counted separately from organic ones.
#[test]
fn forced_rejection_constructs_overloaded() {
    let engine = chaos_engine(ChaosConfig {
        seed: 11,
        reject_submit_p: 1.0,
        ..ChaosConfig::default()
    });
    let a = matrix(1);
    let err = engine
        .submit_spmv(&a, operand(a.num_cols, 0), None)
        .expect_err("certain rejection");
    match err {
        EngineError::Overloaded {
            queue_depth, limit, ..
        } => {
            assert_eq!(queue_depth, 0, "queue was empty; the rejection was forced");
            assert_eq!(limit, engine.config().max_queue_depth());
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.chaos.forced_rejections, 1);
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(engine.pending_requests(), 0);
}

/// Organic `Overloaded` still works with chaos disabled: the
/// per-fingerprint queue refuses the submission past `max_queue_depth`.
#[test]
fn organic_queue_overflow_constructs_overloaded() {
    let cfg = EngineConfig::builder()
        .queue_capacity(3)
        .build()
        .expect("valid config");
    let engine = Engine::with_config(&device(), cfg);
    let a = matrix(2);
    for s in 0..3 {
        engine
            .submit_spmv(&a, operand(a.num_cols, s), None)
            .expect("under the depth limit");
    }
    let err = engine
        .submit_spmv(&a, operand(a.num_cols, 9), None)
        .expect_err("fourth submission overflows");
    assert!(
        matches!(
            err,
            EngineError::Overloaded {
                queue_depth: 3,
                limit: 3,
                ..
            }
        ),
        "{err:?}"
    );
    let stats = engine.stats();
    assert_eq!(stats.chaos.forced_rejections, 0, "no chaos involved");
    assert_eq!(stats.rejected_overload, 1);
}

/// `deadline_expiry_p = 1` expires every deadline-carrying request at
/// flush regardless of wall clock; the ticket redeems as
/// `DeadlineExceeded`. Requests without deadlines are immune and still
/// complete in the same flush.
#[test]
fn forced_expiry_constructs_deadline_exceeded() {
    let engine = chaos_engine(ChaosConfig {
        seed: 23,
        deadline_expiry_p: 1.0,
        ..ChaosConfig::default()
    });
    let a = matrix(3);
    let doomed = engine
        .submit_spmv(&a, operand(a.num_cols, 0), Some(Duration::from_secs(3600)))
        .expect("admitted");
    let immune = engine
        .submit_spmv(&a, operand(a.num_cols, 1), None)
        .expect("admitted");
    assert_eq!(engine.flush(), 2, "both requests resolve in one flush");
    assert!(
        matches!(
            engine.take_result(doomed),
            Err(EngineError::DeadlineExceeded { .. })
        ),
        "a generous hour-long deadline was forcibly expired"
    );
    let y = engine.take_result(immune).expect("no deadline, no expiry");
    assert_eq!(y.into_vector().len(), a.num_rows);
    let stats = engine.stats();
    assert_eq!(stats.chaos.forced_deadline_expiries, 1);
    assert_eq!(stats.rejected_deadline, 1);
}

/// A ticket redeemed before any flush is `NotReady`; the request stays
/// queued and completes normally afterwards.
#[test]
fn unflushed_ticket_is_not_ready() {
    let engine = chaos_engine(ChaosConfig::default());
    let a = matrix(4);
    let t = engine
        .submit_spmv(&a, operand(a.num_cols, 0), None)
        .expect("admitted");
    assert!(matches!(
        engine.take_result(t),
        Err(EngineError::NotReady(_))
    ));
    assert_eq!(engine.flush(), 1);
    engine.take_result(t).expect("ready after the flush");
}

/// Double redemption and never-issued tickets are `UnknownTicket`.
#[test]
fn spent_or_bogus_tickets_are_unknown() {
    let engine = chaos_engine(ChaosConfig::default());
    let a = matrix(5);
    let t = engine
        .submit_spmv(&a, operand(a.num_cols, 0), None)
        .expect("admitted");
    engine.flush();
    engine.take_result(t).expect("first redemption");
    assert!(matches!(
        engine.take_result(t),
        Err(EngineError::UnknownTicket(_))
    ));
}

/// Out-of-range chaos probabilities are an `InvalidConfig` at the
/// builder (the only construction path now that config fields are
/// private), alongside the existing zero-capacity rejections.
#[test]
fn invalid_configs_are_rejected_up_front() {
    for bad in [-0.25, 1.5, f64::NAN, f64::INFINITY] {
        let built = EngineConfig::builder()
            .chaos(ChaosConfig {
                seed: 1,
                pool_exhaust_p: bad,
                ..ChaosConfig::default()
            })
            .build();
        match built {
            Err(EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains("chaos"), "unhelpful message: {msg}")
            }
            Err(other) => panic!("probability {bad} rejected oddly: {other:?}"),
            Ok(_) => panic!("probability {bad} accepted"),
        }
    }
    assert!(matches!(
        EngineConfig::builder().plan_capacity(0).build(),
        Err(EngineError::InvalidConfig(_))
    ));
}

/// Unclaimed results age out of the completion store after
/// `result_ttl_flushes` further flushes: the ticket becomes
/// `UnknownTicket` and the eviction is counted.
#[test]
fn unclaimed_results_age_out() {
    let cfg = EngineConfig::builder()
        .result_ttl_flushes(2)
        .build()
        .expect("valid config");
    let engine = Engine::with_config(&device(), cfg);
    let a = matrix(6);
    let t = engine
        .submit_spmv(&a, operand(a.num_cols, 0), None)
        .expect("admitted");
    assert_eq!(engine.flush(), 1);
    // Empty flushes still advance the TTL clock.
    engine.flush();
    engine.flush();
    engine.flush();
    assert!(
        matches!(engine.take_result(t), Err(EngineError::UnknownTicket(_))),
        "result should have aged out"
    );
    assert_eq!(engine.stats().results_evicted, 1);
}

/// Pool exhaustion and cache-eviction storms at high probability: the
/// engine rebuilds plans and reallocates workspaces constantly, the
/// fault counters prove the schedule fired, and every completed result
/// is still bitwise identical to a chaos-free engine's.
#[test]
fn resource_churn_never_corrupts_results() {
    let dev = device();
    let clean = Engine::new(&dev);
    let chaotic = chaos_engine(ChaosConfig {
        seed: 0xC0FFEE,
        pool_exhaust_p: 0.8,
        cache_storm_p: 0.7,
        ..ChaosConfig::default()
    });

    for round in 0..6u64 {
        let a = matrix(round % 3); // cycle patterns to stress the plan cache
        let xs: Vec<Vec<f64>> = (0..5).map(|s| operand(a.num_cols, s)).collect();
        let want: Vec<Vec<f64>> = xs.iter().map(|x| clean.spmv(&a, x)).collect();

        // Direct path under churn.
        for (x, w) in xs.iter().zip(&want) {
            let got = chaotic.spmv(&a, x);
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "direct spmv diverged under chaos");
        }

        // Batched path under churn.
        let tickets: Vec<Ticket> = xs
            .iter()
            .map(|x| {
                chaotic
                    .submit_spmv(&a, x.clone(), None)
                    .expect("admission chaos is off in this test")
            })
            .collect();
        assert_eq!(chaotic.flush(), xs.len());
        for (t, w) in tickets.into_iter().zip(&want) {
            let got = chaotic.take_result(t).expect("completed").into_vector();
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "batched spmv diverged under chaos");
        }
    }

    let stats = chaotic.stats();
    assert!(
        stats.chaos.pool_exhaustions > 0,
        "exhaustion schedule never fired: {:?}",
        stats.chaos
    );
    assert!(
        stats.chaos.cache_storms > 0,
        "storm schedule never fired: {:?}",
        stats.chaos
    );
    // Storms force rebuilds, so the chaotic engine must miss more.
    assert!(stats.cache_misses > clean.stats().cache_misses);
    let rendered = stats.render();
    assert!(rendered.contains("faults injected"), "{rendered}");
}

/// The fault schedule is a pure function of `(seed, probabilities)` and
/// the engine's processing order: two engines driven identically inject
/// identical fault counts; a different seed injects a different schedule.
#[test]
fn fault_schedules_replay_deterministically() {
    // Drive a fixed request sequence and record each request's fate —
    // the fate vector, not just aggregate counters, is the schedule.
    let drive = |seed: u64| {
        let engine = chaos_engine(ChaosConfig {
            seed,
            pool_exhaust_p: 0.5,
            cache_storm_p: 0.4,
            deadline_expiry_p: 0.5,
            ..ChaosConfig::default()
        });
        let a = matrix(7);
        let mut fates = Vec::new();
        for s in 0..16 {
            let deadline = (s % 2 == 0).then(|| Duration::from_secs(3600));
            let t = engine
                .submit_spmv(&a, operand(a.num_cols, s), deadline)
                .expect("admitted");
            engine.flush();
            fates.push(match engine.take_result(t) {
                Ok(_) => "completed",
                Err(EngineError::DeadlineExceeded { .. }) => "expired",
                other => panic!("unexpected redemption outcome: {other:?}"),
            });
        }
        (fates, engine.stats().chaos)
    };
    let (fates_a, chaos_a) = drive(42);
    let (fates_b, chaos_b) = drive(42);
    let (fates_c, chaos_c) = drive(43);
    assert_eq!(fates_a, fates_b, "same seed must replay the same fates");
    assert_eq!(chaos_a, chaos_b, "same seed must inject the same faults");
    assert!(chaos_a.total() > 0, "schedule never fired: {chaos_a:?}");
    assert!(
        fates_a.contains(&"completed") && fates_a.contains(&"expired"),
        "schedule should mix outcomes: {fates_a:?}"
    );
    assert!(
        fates_a != fates_c || chaos_a != chaos_c,
        "different seeds replayed identically (astronomically unlikely)"
    );
}

/// Replay holds across matrices too: with many matrices queued per
/// flush, nothing in a flush or a service drain may depend on hash
/// order. An engine and a 2-shard service, each driven twice through the
/// same schedule with half of all deadlines forcibly expired, must
/// reproduce every request's fate and every shard's fault counts.
#[test]
fn fault_schedules_replay_across_matrices() {
    let chaos = ChaosConfig {
        seed: 42,
        deadline_expiry_p: 0.5,
        ..ChaosConfig::default()
    };
    let mats: Vec<Arc<CsrMatrix>> = (0..16).map(|s| matrix(200 + s)).collect();
    let deadline = Some(Duration::from_secs(3600));
    let fate = |r: Result<EngineOutput, EngineError>| match r {
        Ok(_) => "completed",
        Err(EngineError::DeadlineExceeded { .. }) => "expired",
        other => panic!("unexpected redemption outcome: {other:?}"),
    };
    let drive_engine = || {
        let engine = chaos_engine(chaos.clone());
        let mut fates = Vec::new();
        for round in 0..3 {
            let tickets: Vec<Ticket> = mats
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    engine
                        .submit_spmv(a, operand(a.num_cols, round * 16 + i), deadline)
                        .expect("admitted")
                })
                .collect();
            engine.flush();
            fates.extend(tickets.into_iter().map(|t| fate(engine.take_result(t))));
        }
        (fates, vec![engine.stats().chaos])
    };
    let drive_service = || {
        let cfg = ServiceConfig::builder()
            .shards(2)
            .engine(
                EngineConfig::builder()
                    .chaos(chaos.clone())
                    .build()
                    .expect("valid config"),
            )
            .build()
            .expect("valid config");
        let svc = Service::with_config(&device(), cfg);
        let mut fates = Vec::new();
        for round in 0..3 {
            let tickets: Vec<_> = mats
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    svc.submit_spmv(
                        TenantId(0),
                        a,
                        operand(a.num_cols, round * 16 + i),
                        deadline,
                    )
                    .expect("admitted")
                })
                .collect();
            svc.flush();
            fates.extend(tickets.into_iter().map(|t| fate(svc.take_result(t))));
        }
        let counters: Vec<ChaosCounters> = svc.stats().shards.iter().map(|s| s.chaos).collect();
        (fates, counters)
    };
    type Run = (Vec<&'static str>, Vec<ChaosCounters>);
    let check = |what: &str, [(fates_a, chaos_a), (fates_b, chaos_b)]: [Run; 2]| {
        assert_eq!(
            fates_a, fates_b,
            "{what}: same seed must replay the same fates"
        );
        assert_eq!(
            chaos_a, chaos_b,
            "{what}: same seed must inject the same faults"
        );
        assert!(
            fates_a.contains(&"completed") && fates_a.contains(&"expired"),
            "{what}: schedule should mix outcomes: {fates_a:?}"
        );
    };
    check("engine", [drive_engine(), drive_engine()]);
    check("service", [drive_service(), drive_service()]);
}
