//! Fig. 7: a discrete-event simulation of the CC-IN2P3 production
//! deployment.
//!
//! The workflow of the paper's Fig. 6: syslog-ng matches every message
//! against the *promoted* pattern database; only unmatched messages are
//! piped to Sequence-RTG, which mines candidate patterns continuously.
//! "System administrators are still involved in the review and promotion
//! process": every few days an administrator reviews the candidates and
//! promotes the strong ones into the pattern database.
//!
//! Starting point matches the paper — "the percentage of unknown messages
//! was sitting around 75-80%" — and over 60 simulated days the unmatched
//! fraction should decay to ≈15%. The residual floor is modelled by a
//! fraction of *unique noise* messages (one-off events that never repeat,
//! which the save threshold rightly never promotes).

use loghub_synth::{generate_stream, CorpusConfig};
use sequence_core::{PatternSet, Scanner};
use sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::collections::{HashMap, HashSet};
use testkit::rng::Rng;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Days to simulate (the paper's Fig. 7 spans 60).
    pub days: usize,
    /// Messages per simulated day (scaled down from the paper's 70–100 M).
    pub daily_messages: usize,
    /// Virtual services in the stream.
    pub services: usize,
    /// Days between administrator review/promotion sessions.
    pub review_interval: usize,
    /// Save threshold: candidates below this match count are never offered
    /// for promotion.
    pub promote_min_count: u64,
    /// Candidates above this complexity score are rejected at review.
    pub promote_max_complexity: f64,
    /// Probability a reviewed candidate is promoted ("the most correct
    /// pattern would be promoted and the other discarded").
    pub acceptance: f64,
    /// Fraction of daily volume that is unique one-off noise (never
    /// promotable; sets the residual unmatched floor).
    pub noise_fraction: f64,
    /// Fraction of day-0 volume the pre-existing hand-maintained pattern
    /// database already matches (the paper: 20–25%).
    pub initial_coverage: f64,
    /// Sequence-RTG batch size.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            days: 60,
            daily_messages: 8_000,
            services: 60,
            review_interval: 3,
            promote_min_count: 3,
            promote_max_complexity: 0.95,
            acceptance: 0.9,
            noise_fraction: 0.13,
            initial_coverage: 0.22,
            batch_size: 4_000,
            seed: 11,
        }
    }
}

/// Per-day outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayStats {
    /// Day index (1-based).
    pub day: usize,
    /// Messages received.
    pub received: usize,
    /// Messages matched by the promoted pattern database.
    pub matched: usize,
    /// Unmatched percentage (the Fig. 7 y-axis).
    pub unmatched_pct: f64,
    /// Promoted patterns in the database at end of day.
    pub promoted_patterns: usize,
    /// Candidate patterns in the Sequence-RTG store at end of day.
    pub candidate_patterns: u64,
    /// Minutes to fill one Sequence-RTG batch at this day's unmatched rate,
    /// calibrated so day 1 ≈ 15 minutes (paper §IV).
    pub batch_fill_minutes: f64,
}

/// Run the 60-day simulation.
pub fn simulate(config: SimConfig) -> Vec<DayStats> {
    let mut rng = Rng::seed_from_u64(config.seed);
    let scanner = Scanner::new();
    let mut scratch = sequence_core::MatchScratch::default();
    let mut promoted: HashMap<String, PatternSet> = HashMap::new();
    let mut promoted_ids: HashSet<String> = HashSet::new();
    let mut rtg = SequenceRtg::in_memory(RtgConfig {
        batch_size: config.batch_size,
        save_threshold: 2,
        ..RtgConfig::default()
    });

    // Bootstrap: the hand-maintained pattern database that existed before
    // Sequence-RTG. Mine a sample and promote the most frequent patterns
    // until they cover ~initial_coverage of the volume.
    bootstrap_promoted(&config, &mut promoted, &mut promoted_ids);

    let mut out = Vec::with_capacity(config.days);
    let mut day_one_unmatched_rate: Option<f64> = None;
    for day in 1..=config.days {
        let day_seed = config.seed.wrapping_add(day as u64 * 104_729);
        let stream = generate_stream(CorpusConfig {
            services: config.services,
            total: config.daily_messages,
            seed: day_seed,
        });
        let mut matched = 0usize;
        let mut unmatched_records: Vec<LogRecord> = Vec::new();
        for (i, item) in stream.iter().enumerate() {
            // Inject unique noise in place of a slice of the volume.
            let is_noise = rng.gen_bool(config.noise_fraction);
            if is_noise {
                let msg = noise_message(&mut rng, day, i);
                // Noise never matches the promoted database.
                unmatched_records.push(LogRecord::new("misc", msg));
                continue;
            }
            // Parse-only: the raw text is never needed again, so skip the
            // raw copy and reuse the trie-walk scratch across the stream.
            let scanned = scanner.scan_parse_only(&item.message);
            let hit = promoted
                .get(&item.service)
                .and_then(|set| set.match_message_with(&scanned, &mut scratch))
                .is_some();
            if hit {
                matched += 1;
            } else {
                unmatched_records
                    .push(LogRecord::new(item.service.as_str(), item.message.as_str()));
            }
        }
        // The unmatched stream feeds Sequence-RTG, batch by batch.
        for chunk in unmatched_records.chunks(config.batch_size) {
            rtg.analyze_by_service(chunk, day as u64)
                .expect("in-memory analysis");
        }
        // Review + promotion session.
        if day % config.review_interval == 0 {
            review_and_promote(
                &config,
                &mut rng,
                &mut rtg,
                &mut promoted,
                &mut promoted_ids,
            );
        }
        let received = stream.len();
        let unmatched = received - matched;
        let unmatched_rate = unmatched as f64 / received as f64;
        let base = *day_one_unmatched_rate.get_or_insert(unmatched_rate);
        out.push(DayStats {
            day,
            received,
            matched,
            unmatched_pct: 100.0 * unmatched_rate,
            promoted_patterns: promoted_ids.len(),
            candidate_patterns: rtg.store_mut().pattern_count().expect("count"),
            // Fill time scales inversely with the unmatched inflow;
            // calibrated to the paper's ~15 minutes on day 1.
            batch_fill_minutes: 15.0 * base / unmatched_rate.max(1e-6),
        });
    }
    out
}

fn noise_message(rng: &mut Rng, day: usize, i: usize) -> String {
    let words = [
        "ephemeral",
        "oddity",
        "glitch",
        "spurious",
        "transient",
        "anomalous",
    ];
    format!(
        "{} condition 0x{:08x} at unit {} ref {}-{}-{}",
        words[rng.gen_range(0..words.len())],
        rng.u32(),
        rng.gen_range(0..512),
        day,
        i,
        rng.u16(),
    )
}

/// Build the pre-existing hand-maintained pattern database.
fn bootstrap_promoted(
    config: &SimConfig,
    promoted: &mut HashMap<String, PatternSet>,
    promoted_ids: &mut HashSet<String>,
) {
    let sample = generate_stream(CorpusConfig {
        services: config.services,
        total: config.daily_messages,
        seed: config.seed.wrapping_mul(31),
    });
    let records: Vec<LogRecord> = sample
        .iter()
        .map(|item| LogRecord::new(item.service.as_str(), item.message.as_str()))
        .collect();
    let mut miner = SequenceRtg::in_memory(RtgConfig::default());
    miner
        .analyze_by_service(&records, 0)
        .expect("bootstrap analysis");
    let mut patterns = miner
        .store_mut()
        .patterns(None)
        .expect("bootstrap patterns");
    patterns.sort_by(|a, b| b.count.cmp(&a.count));
    // Account for the noise share that will exist in real days: target
    // coverage applies to the non-noise volume.
    let target = (config.initial_coverage * sample.len() as f64) as u64;
    let mut covered = 0u64;
    for p in patterns {
        if covered >= target {
            break;
        }
        if let Ok(parsed) = p.pattern() {
            covered += p.count;
            promoted
                .entry(p.service.clone())
                .or_default()
                .insert(p.id.clone(), parsed);
            promoted_ids.insert(p.id);
        }
    }
}

/// An administrator review session, using the `patterndb::review` workflow:
/// walk the priority-ordered queue, resolve multi-match conflicts ("the most
/// correct pattern would be promoted and the other discarded"), and promote
/// strong candidates with the configured acceptance probability.
fn review_and_promote(
    config: &SimConfig,
    rng: &mut Rng,
    rtg: &mut SequenceRtg,
    promoted: &mut HashMap<String, PatternSet>,
    promoted_ids: &mut HashSet<String>,
) {
    // Resolve multi-match conflicts first, as the paper's review does.
    let candidates = rtg.store_mut().patterns(None).expect("candidates");
    let conflicts = patterndb::find_conflicts(&candidates);
    let mut discarded: HashSet<String> = HashSet::new();
    for c in conflicts {
        if discarded.contains(&c.pattern_a) || discarded.contains(&c.pattern_b) {
            continue;
        }
        if let Ok((_winner, loser)) = patterndb::resolve_conflict(rtg.store_mut(), &c) {
            discarded.insert(loser);
        }
    }
    // Then promote from the priority queue.
    let queue = patterndb::ReviewQueue::build(rtg.store_mut()).expect("queue");
    let decisions: Vec<(String, String, Option<sequence_core::Pattern>)> = queue
        .items()
        .iter()
        .filter(|item| {
            !promoted_ids.contains(&item.pattern.id)
                && item.pattern.count >= config.promote_min_count
                && item.pattern.complexity <= config.promote_max_complexity
        })
        .map(|item| {
            (
                item.pattern.id.clone(),
                item.pattern.service.clone(),
                item.pattern.pattern().ok(),
            )
        })
        .collect();
    for (id, service, parsed) in decisions {
        if !rng.gen_bool(config.acceptance) {
            continue;
        }
        if let Some(parsed) = parsed {
            rtg.store_mut().promote(&id).expect("promote");
            promoted
                .entry(service)
                .or_default()
                .insert(id.clone(), parsed);
            promoted_ids.insert(id);
        }
    }
}

/// Render the day series as an aligned text table (one row per sampled day).
pub fn render_fig7(stats: &[DayStats], every: usize) -> String {
    let mut out = String::new();
    out.push_str("Fig. 7 — unmatched message ratio after introducing Sequence-RTG\n");
    out.push_str(&format!(
        "{:>4} {:>10} {:>10} {:>12} {:>10} {:>11} {:>10}\n",
        "day", "received", "matched", "unmatched %", "promoted", "candidates", "fill(min)"
    ));
    for s in stats.iter().filter(|s| s.day == 1 || s.day % every == 0) {
        out.push_str(&format!(
            "{:>4} {:>10} {:>10} {:>12.1} {:>10} {:>11} {:>10.1}\n",
            s.day,
            s.received,
            s.matched,
            s.unmatched_pct,
            s.promoted_patterns,
            s.candidate_patterns,
            s.batch_fill_minutes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SimConfig {
        SimConfig {
            days: 12,
            daily_messages: 1_500,
            services: 20,
            review_interval: 2,
            ..SimConfig::default()
        }
    }

    #[test]
    fn unmatched_ratio_decays() {
        let stats = simulate(small_config());
        assert_eq!(stats.len(), 12);
        let first = stats[0].unmatched_pct;
        let last = stats.last().unwrap().unmatched_pct;
        assert!(first > 55.0, "day-1 unmatched should be high: {first}");
        assert!(
            last < first - 20.0,
            "should decay substantially: {first} -> {last}"
        );
    }

    #[test]
    fn noise_floor_holds() {
        let mut cfg = small_config();
        cfg.days = 16;
        let stats = simulate(cfg);
        let last = stats.last().unwrap().unmatched_pct;
        // The unique-noise share (13%) can never be promoted away.
        assert!(last >= 10.0, "floor from unique noise: {last}");
    }

    #[test]
    fn promotions_accumulate_and_fill_time_grows() {
        let stats = simulate(small_config());
        let first = &stats[0];
        let last = stats.last().unwrap();
        assert!(last.promoted_patterns > first.promoted_patterns);
        assert!(last.batch_fill_minutes > first.batch_fill_minutes);
    }

    #[test]
    fn deterministic() {
        let a = simulate(small_config());
        let b = simulate(small_config());
        assert_eq!(a, b);
    }

    #[test]
    fn render_contains_sampled_days() {
        let stats = simulate(small_config());
        let table = render_fig7(&stats, 4);
        assert!(table.contains("unmatched %"));
        assert!(table.lines().count() >= 4);
    }
}
