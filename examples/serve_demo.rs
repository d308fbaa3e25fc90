//! The train → freeze → serve lifecycle end to end, multi-tenant: train
//! two censors (DT and LSTM), train a small Amoeba policy against the DT
//! censor in the offline gym — plus a second policy against a
//! **verdict-only** wrapper of the same DT censor (`HardLabelFactory`:
//! the program answers `Block`/`Allow`, never a score, so PPO learns
//! from binary feedback alone) — freeze both, then serve shaped flows
//! through one `ServeEngine` against three censor tenants concurrently:
//! the DT censor, the LSTM censor, and the hard-label program. The
//! per-tenant sub-reports print the §5.4 cross-censor transfer story
//! and the hard-label threat model from a single dataplane run. The
//! demo ends by printing the run's telemetry snapshot — counters,
//! histogram latency percentiles, per-tenant cells (verdict queries and
//! teardowns included) and flight-recorder occupancy — observability
//! that never moves a wire bit.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```
//!
//! `AMOEBA_SERVE_FLOWS` / `AMOEBA_STEPS` bound the run (CI uses the
//! defaults: ~1 000 sessions — offered flows × 3 censor tenants — and
//! 8 192 PPO timesteps); `AMOEBA_SERVE_SHARDS` sets the engine
//! worker-thread count (default 0 = one per core) — wire output is
//! shard-count- and tenancy-invariant. A set variable that is not a
//! non-negative integer stops the demo with exit status 2, naming it.

use std::sync::Arc;

use amoeba::classifiers::{
    evaluate, train_censor, Censor, CensorKind, CensorProgramFactory, HardLabelFactory, TrainConfig,
};
use amoeba::core::{
    pretrain_encoder, sensitive_flows, train_amoeba_with_encoder,
    train_amoeba_with_encoder_program, AmoebaConfig,
};
use amoeba::serve::{FrozenPolicy, ServeConfig, ServeEngine, Tenant, VerdictPolicy};
use amoeba::traffic::{build_dataset, DatasetKind, Flow, Layer};

/// The count in variable `name`, or `default` when it is unset. A set
/// value that is not a non-negative integer exits with status 2.
fn env_or(name: &str, default: usize) -> usize {
    let Some(v) = std::env::var_os(name) else {
        return default;
    };
    v.to_str().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {name}={v:?} is not a non-negative integer");
        std::process::exit(2)
    })
}

fn main() {
    let n_sessions = env_or("AMOEBA_SERVE_FLOWS", 1000);
    let n_flows = n_sessions.div_ceil(3);
    let steps = env_or("AMOEBA_STEPS", 8_192);

    // --- train: two censor families, then Amoeba against the DT one ------
    let splits = build_dataset(DatasetKind::Tor, 250, None, 42).split(42);
    let dt: Arc<dyn Censor> = Arc::new(train_censor(
        CensorKind::Dt,
        &splits.clf_train,
        Layer::Tcp,
        &TrainConfig::fast(),
        1,
    ));
    let lstm: Arc<dyn Censor> = Arc::new(train_censor(
        CensorKind::Lstm,
        &splits.clf_train,
        Layer::Tcp,
        &TrainConfig::fast(),
        1,
    ));
    for (name, censor) in [("DT", &dt), ("LSTM", &lstm)] {
        println!(
            "censor ({name}) on raw traffic: {}",
            evaluate(censor.as_ref(), &splits.test)
        );
    }

    let cfg = AmoebaConfig::fast().with_timesteps(steps).with_seed(7);
    // One Algorithm-2 encoder pretraining feeds both policies — the
    // StateEncoder is censor-independent.
    let (encoder, encoder_loss) = pretrain_encoder(&cfg);
    let train_flows = sensitive_flows(&splits.attack_train);
    let (agent, report) = train_amoeba_with_encoder(
        Arc::clone(&dt),
        &train_flows,
        Layer::Tcp,
        &cfg,
        encoder.clone(),
        encoder_loss,
        None,
    );
    println!(
        "trained vs DT: {} timesteps, {} censor queries",
        report.total_timesteps(),
        report.total_queries()
    );
    // A second policy trained against the *verdict-only* wrapper of the
    // same DT censor: the program answers Block/Allow, never a score, so
    // PPO sees only binary feedback (the hard-label threat model).
    let hard_factory: Arc<dyn CensorProgramFactory> =
        Arc::new(HardLabelFactory::over_censor(Arc::clone(&dt)));
    let (hard_agent, hard_report) = train_amoeba_with_encoder_program(
        Arc::clone(&hard_factory),
        &train_flows,
        Layer::Tcp,
        &cfg,
        encoder,
        encoder_loss,
        None,
    );
    println!(
        "trained vs hard-label DT: {} timesteps, {} censor queries",
        hard_report.total_timesteps(),
        hard_report.total_queries()
    );

    // --- freeze ------------------------------------------------------------
    let policy = FrozenPolicy::from_agent(&agent);
    let hard_policy = FrozenPolicy::from_agent(&hard_agent);

    // --- serve: one engine, one policy, two censor tenants ----------------
    let base = sensitive_flows(&splits.test);
    let offered: Vec<Flow> = (0..n_flows)
        .map(|i| base[i % base.len()].prefix(20))
        .collect();
    let serve_cfg = ServeConfig::builder_from_amoeba(agent.config(), Layer::Tcp)
        .batch(64)
        .shards(env_or("AMOEBA_SERVE_SHARDS", 0))
        .verdicts(VerdictPolicy::Every(8))
        .seed(7)
        // Keep the last 256 stage spans per shard for the trace dump.
        .trace_ring(256)
        .build();
    let mut engine = ServeEngine::new(serve_cfg);
    let p = engine.register_policy(policy);
    let p_hard = engine.register_policy(hard_policy);
    let c_dt = engine.register_censor(Arc::clone(&dt));
    let c_lstm = engine.register_censor(Arc::clone(&lstm));
    let c_hard = engine.register_censor_program(Arc::clone(&hard_factory));
    for flow in &offered {
        engine.admit(flow).policy(p).censor(c_dt).submit();
        engine.admit(flow).policy(p).censor(c_lstm).submit();
        engine.admit(flow).policy(p_hard).censor(c_hard).submit();
    }
    let backend = engine.backend_name();
    let r = engine.run();

    println!("serve ({backend} backend): {}", r.summary());
    assert!(
        r.stream_ok_rate() == 1.0,
        "every session must reassemble its byte streams bit-exact"
    );
    let names = [
        (c_dt, "DT (training censor)"),
        (c_lstm, "LSTM (transfer)"),
        (c_hard, "hard-label DT (verdict-only)"),
    ];
    for (tenant, sub) in r.sub_reports() {
        let name = names
            .iter()
            .find(|(c, _)| *c == tenant.censor)
            .map(|(_, n)| *n)
            .unwrap_or("?");
        println!("  vs {name}: {}", sub.summary());
    }
    let hard_sub = r.sub_report(Tenant::new(p_hard, c_hard));
    assert!(
        hard_sub.evasion_rate() > 0.0,
        "the policy trained on binary feedback alone must still evade \
         some sessions against its verdict-only censor"
    );
    println!(
        "hard-label policy evaded {:.1}% of its sessions from binary feedback alone",
        hard_sub.evasion_rate() * 100.0
    );
    println!(
        "one engine served {} sessions ({} offered flows x 3 censor tenants) at \
         {:.0} flows/s ({:.2} MB/s payload)",
        r.outcomes.len(),
        offered.len(),
        r.flows_per_sec(),
        r.payload_mb_per_sec()
    );

    // --- observe: the telemetry snapshot that rode along -------------------
    let snap = r.telemetry.as_ref().expect("telemetry is on by default");
    println!(
        "telemetry: {} ticks, {} batches ({} stolen), {} absorbs ({} out of order), \
         latency p50 {:.0}µs p99 {:.0}µs from log-linear histograms, {} trace events \
         ({} dropped by the ring)",
        snap.counters.ticks,
        snap.counters.batches,
        snap.counters.stolen_batches,
        snap.counters.absorbs,
        snap.counters.absorbs_out_of_order,
        snap.latency_hist.quantile_us(0.5),
        snap.latency_hist.quantile_us(0.99),
        snap.events.len(),
        snap.dropped_events,
    );
    for (key, cell) in &snap.tenants {
        println!(
            "  tenant (policy {}, censor {}): {} frames, {} verdicts from {} queries, \
             {}/{} sessions evaded, {} torn down",
            key.policy,
            key.censor,
            cell.frames,
            cell.verdicts,
            cell.verdict_queries,
            cell.evasions,
            cell.sessions,
            cell.teardowns
        );
    }
}
