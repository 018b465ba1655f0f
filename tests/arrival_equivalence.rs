//! Matching on arrival changes what a batch holds, never what it computes.
//!
//! The pipeline matches each record against its service's set as it
//! arrives and keeps only the unmatched residue; the batch then plans the
//! residue and folds the arrival counts in. The reference below is the
//! whole-batch algorithm it replaced: hold the batch, partition it by
//! service, plan every service's records, commit the plans. For any
//! interleaving of services, batch size, save threshold and semi-constant
//! setting, both must leave the same store — byte for byte, as its SQL
//! dump — and report the same sums.

use sequence_rtg_repro::loghub_synth::loghub2::{self, LOGHUB2_FAMILIES};
use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::sequence_core::{Analyzer, MatchScratch, PatternSet, Scanner};
use sequence_rtg_repro::sequence_rtg::{
    commit_plans, plan_service, BatchReport, LogRecord, Pipeline, RtgConfig, SequenceRtg,
    ServicePlan,
};
use std::collections::{BTreeMap, HashMap};
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
    semi_constant_split: bool,
}

impl Case {
    fn config(&self) -> RtgConfig {
        RtgConfig {
            batch_size: self.batch_size,
            save_threshold: self.save_threshold,
            semi_constant_split: self.semi_constant_split,
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
        semi_constant_split: rng.gen_bool(0.5),
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
    (store.db().dump(), total)
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
    (pipeline.engine_mut().store_mut().db().dump(), total)
}

/// `analyze_by_service` over each batch slice.
fn engine(records: &[LogRecord], config: RtgConfig) -> (String, BatchReport) {
    let mut rtg = SequenceRtg::in_memory(config);
    let mut total = BatchReport::default();
    for batch in records.chunks(config.batch_size) {
        total.merge(&rtg.analyze_by_service(batch, NOW).unwrap());
    }
    (rtg.store_mut().db().dump(), total)
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
