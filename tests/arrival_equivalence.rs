//! Matching on arrival changes what a batch holds, never what it computes.
//!
//! The pipeline matches each record against its service's set as it
//! arrives and keeps only the unmatched residue; the batch then plans the
//! residue and folds the arrival counts in. The reference below is the
//! whole-batch algorithm it replaced: hold the batch, partition it by
//! service, plan every service's records, commit the plans. For any
//! interleaving of services, batch size, save threshold and analyser
//! preset, both must leave the same store — byte for byte, as its SQL
//! dump — and report the same sums.
//!
//! `seqd` mines through the same step. Its miner, handed the pipeline's
//! batches at the same cut points, commits the pipeline's rows; and a job
//! that coalesced two handoffs mines exactly like one batch filled with
//! both in turn.

use sequence_rtg_repro::loghub_synth::loghub2::{self, LOGHUB2_FAMILIES};
use sequence_rtg_repro::patterndb::{PatternStore, StoredPattern};
use sequence_rtg_repro::seqd::metrics::Ops;
use sequence_rtg_repro::seqd::miner::{DrainSignal, MineJob, Miner, MinerDeps};
use sequence_rtg_repro::sequence_core::{
    Analyzer, AnalyzerOptions, MatchScratch, PatternSet, Scanner, TokenizedMessage,
};
use sequence_rtg_repro::sequence_rtg::{
    commit_plans, plan_service, publish, BatchReport, LogRecord, Mining, OpenBatch, PatternBoard,
    Pipeline, RtgConfig, SequenceRtg, ServicePlan,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use testkit::prop::{self, Config};
use testkit::rng::Rng;
use testkit::{prop_assert, prop_assert_eq};

/// One fixed clock: the stored timestamps are part of the dump.
const NOW: u64 = 1_630_000_000;

#[derive(Debug, Clone)]
struct Case {
    families: Vec<&'static str>,
    lines_per_family: usize,
    seed: u64,
    batch_size: usize,
    save_threshold: u64,
    analyzer: AnalyzerOptions,
}

impl Case {
    fn config(&self) -> RtgConfig {
        RtgConfig {
            batch_size: self.batch_size,
            save_threshold: self.save_threshold,
            analyzer: self.analyzer,
            ..RtgConfig::default()
        }
    }

    /// The families' streams interleaved in a random order, with the odd
    /// empty and multi-line message.
    fn records(&self) -> Vec<LogRecord> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut streams: Vec<_> = self
            .families
            .iter()
            .map(|f| (*f, loghub2::stream(f, self.lines_per_family, self.seed)))
            .collect();
        let mut records = Vec::new();
        while !streams.is_empty() {
            let at = rng.gen_range(0..streams.len());
            let Some(line) = streams[at].1.next() else {
                streams.swap_remove(at);
                continue;
            };
            let message = match rng.gen_range(0..60u32) {
                0 => String::new(),
                1 => format!("{}\n  at frame {}", line.raw, rng.gen_range(0..9u32)),
                _ => line.raw,
            };
            records.push(LogRecord::new(streams[at].0, message));
        }
        records
    }
}

fn case(rng: &mut Rng) -> Case {
    let mut families = LOGHUB2_FAMILIES.to_vec();
    rng.shuffle(&mut families);
    families.truncate(rng.gen_range(2..5usize));
    Case {
        families,
        lines_per_family: rng.gen_range(20..300usize),
        seed: rng.gen_range(0..u64::MAX),
        batch_size: match rng.gen_range(0..4u32) {
            0 => rng.gen_range(1..8usize),
            1 => rng.gen_range(8..200usize),
            2 => rng.gen_range(200..1_200usize),
            _ => 5_000,
        },
        save_threshold: if rng.gen_bool(0.5) { 0 } else { 2 },
        analyzer: match rng.gen_range(0..3u32) {
            0 => AnalyzerOptions::default(),
            1 => AnalyzerOptions::paper(),
            _ => AnalyzerOptions::seminal_sequence(),
        },
    }
}

/// The whole-batch algorithm: hold each batch, partition it by service,
/// plan every record, commit the plans in service order.
fn reference(records: &[LogRecord], config: RtgConfig) -> (String, BatchReport) {
    let scanner = Scanner::with_options(config.scanner);
    let analyzer = Analyzer::with_options(config.analyzer);
    let (mut store, mut scratch) = (PatternStore::in_memory(), MatchScratch::default());
    let mut sets: HashMap<String, PatternSet> = HashMap::new();
    let mut total = BatchReport::default();
    for batch in records.chunks(config.batch_size) {
        let mut by_service: BTreeMap<&str, Vec<&LogRecord>> = BTreeMap::new();
        for r in batch {
            by_service.entry(&r.service).or_default().push(r);
        }
        let plans: Vec<(&str, ServicePlan)> = by_service
            .iter()
            .map(|(s, rs)| {
                let set = sets.get(*s);
                (
                    *s,
                    plan_service(&scanner, &analyzer, &config, set, &mut scratch, rs),
                )
            })
            .collect();
        let outcomes = commit_plans(&mut store, plans.iter().map(|(s, p)| (*s, p)), NOW).unwrap();
        total.received += batch.len() as u64;
        total.services += plans.len() as u64;
        for ((service, plan), outcome) in plans.iter().zip(outcomes) {
            total.matched_known += plan.matched_known;
            total.analyzed += plan.analyzed;
            total.multiline += plan.multiline;
            total.empty_messages += plan.empty_messages;
            total.new_patterns += outcome.new_patterns;
            total.updated_patterns += outcome.updated_patterns;
            let set = sets.entry(service.to_string()).or_default();
            outcome
                .inserted
                .into_iter()
                .for_each(|(id, p)| set.insert(id, p));
        }
        if config.save_threshold > 0
            && store.prune_below_threshold(config.save_threshold).unwrap() > 0
        {
            sets = store.load_pattern_sets().unwrap().0;
        }
    }
    (contents(&mut store), total)
}

/// The store's dump, then each pattern's examples: the dump holds only
/// where they are in the examples log.
fn contents(store: &mut PatternStore) -> String {
    let mut text = store.db().dump();
    for p in store.patterns(None).unwrap() {
        text.push_str(&format!("{} {:?}\n", p.id, p.examples));
    }
    text
}

/// The pipeline, record by record, flushed at the end.
fn pipeline(records: &[LogRecord], config: RtgConfig) -> (String, BatchReport) {
    let mut pipeline = Pipeline::new(SequenceRtg::in_memory(config));
    let mut total = BatchReport::default();
    for r in records {
        if let Some(report) = pipeline.push(r.clone(), NOW).unwrap() {
            total.merge(&report);
        }
    }
    if let Some(report) = pipeline.flush(NOW).unwrap() {
        total.merge(&report);
    }
    (contents(pipeline.engine_mut().store_mut()), total)
}

/// `analyze_by_service` over each batch slice.
fn engine(records: &[LogRecord], config: RtgConfig) -> (String, BatchReport) {
    let mut rtg = SequenceRtg::in_memory(config);
    let mut total = BatchReport::default();
    for batch in records.chunks(config.batch_size) {
        total.merge(&rtg.analyze_by_service(batch, NOW).unwrap());
    }
    (contents(rtg.store_mut()), total)
}

#[test]
fn arrival_matching_leaves_the_store_and_reports_of_the_whole_batch() {
    prop::check(&Config::cases(24), &prop::from_fn(case), |case| {
        let records = case.records();
        let config = case.config();
        let (want_dump, want) = reference(&records, config);
        assert!(want.new_patterns > 0, "the case mines something");
        for (name, run) in [
            ("pipeline", pipeline as fn(&[LogRecord], RtgConfig) -> _),
            ("analyze_by_service", engine),
        ] {
            let (dump, report) = run(&records, config);
            prop_assert_eq!(&report, &want, "{name}: summed reports");
            let diverged = dump
                .lines()
                .zip(want_dump.lines())
                .position(|(a, b)| a != b);
            prop_assert!(
                dump == want_dump,
                "{name}: the store dump diverges at line {diverged:?} of {}",
                want_dump.lines().count()
            );
        }
        Ok(())
    });
}

/// Fill one batch with `records`, matched on arrival against `board`.
fn fill(mining: &Mining, board: &PatternBoard, records: &[LogRecord]) -> OpenBatch {
    let (mut tokens, mut scratch) = (TokenizedMessage::default(), MatchScratch::default());
    let mut batch = OpenBatch::default();
    for record in records {
        let set = board.load(&record.service);
        let arrival = mining.arrival(set.as_deref(), &record.message, &mut tokens, &mut scratch);
        batch.take(record, arrival);
    }
    batch
}

/// The store's rows with the two timestamps masked: `seqd` stamps wall-clock
/// time.
fn rows(store: &mut PatternStore) -> Vec<StoredPattern> {
    let mut rows = store.patterns(None).unwrap();
    for row in &mut rows {
        (row.first_seen, row.last_matched) = (0, 0);
    }
    rows
}

#[test]
fn seqd_commits_the_rows_the_pipeline_commits() {
    // seqd never prunes, so its leg runs without a save threshold.
    let leg = |rng: &mut Rng| Case {
        save_threshold: 0,
        ..case(rng)
    };
    prop::check(&Config::cases(12), &prop::from_fn(leg), |case| {
        let records = case.records();
        let config = case.config();
        let mut pipeline = Pipeline::new(SequenceRtg::in_memory(config));
        for r in &records {
            pipeline.push(r.clone(), NOW).unwrap();
        }
        pipeline.flush(NOW).unwrap();
        let want = rows(pipeline.engine_mut().store_mut());

        let deps = MinerDeps {
            mining: Arc::new(Mining::new(config)),
            store: Arc::new(Mutex::new(PatternStore::in_memory())),
            board: Arc::new(PatternBoard::new()),
            ops: Arc::new(Ops::new()),
            wal: None,
            retries: 0,
            backoff: Duration::ZERO,
            drain: Arc::new(DrainSignal::new()),
        };
        let miner = Miner::inline(deps.clone());
        for chunk in records.chunks(config.batch_size) {
            let batch = fill(&deps.mining, &deps.board, chunk);
            let enqueued = Instant::now();
            let job = MineJob {
                shard_id: 0,
                batch,
                release_up_to: 0,
                enqueued,
            };
            miner.try_submit(job).unwrap();
        }
        let got = rows(&mut deps.store.lock().unwrap());
        prop_assert_eq!(deps.ops.snapshot().dropped, 0);
        let diverged = got.iter().zip(&want).position(|(a, b)| a != b);
        prop_assert!(
            got == want,
            "seqd's rows diverge at row {diverged:?} of {} ({} rows)",
            want.len(),
            got.len()
        );
        Ok(())
    });
}

/// Learn the first half of `records` as one batch, then mine the second
/// half as one batch, or, with `split`, as two batches filled in turn and
/// merged. Returns the store's dump.
fn mine_second_half(records: &[LogRecord], config: RtgConfig, split: Option<usize>) -> String {
    let (mining, board) = (Mining::new(config), PatternBoard::new());
    let (mut store, mut scratch) = (PatternStore::in_memory(), MatchScratch::default());
    let mut mine = |mut batch: OpenBatch| {
        let plans = mining.plan(&board, &mut batch, &mut scratch);
        let outcomes = commit_plans(&mut store, plans.iter().map(|(s, p)| (s.as_str(), p)), NOW);
        publish(&board, &plans, outcomes.unwrap());
    };
    let (learn, second) = records.split_at(records.len() / 2);
    let borrowed = |rs: &[LogRecord]| fill(&mining, &board, rs);
    mine(borrowed(learn));
    let batch = match split {
        None => borrowed(second),
        Some(at) => {
            let mut earlier = borrowed(&second[..at]);
            earlier.merge(borrowed(&second[at..]));
            earlier
        }
    };
    mine(batch);
    contents(&mut store)
}

/// Coalescing is concatenation: two handoffs merged into one job mine
/// exactly like one batch filled with both.
#[test]
fn a_merged_batch_mines_like_one_batch() {
    let strategy = prop::from_fn(|rng: &mut Rng| (case(rng), rng.gen_range(0.0..1.0f64)));
    prop::check(&Config::cases(24), &strategy, |(case, at)| {
        let records = case.records();
        let config = case.config();
        let second = records.len() - records.len() / 2;
        let at = (second as f64 * at) as usize;
        let whole = mine_second_half(&records, config, None);
        let merged = mine_second_half(&records, config, Some(at));
        prop_assert!(whole.contains("INSERT"), "the case mines something");
        prop_assert!(merged == whole, "split at {at} of {second}");
        Ok(())
    });
}
