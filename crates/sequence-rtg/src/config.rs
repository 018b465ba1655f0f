//! Runtime configuration for Sequence-RTG.

use sequence_core::{AnalyzerOptions, ScannerOptions};

/// Configuration shared by the library entry points and the CLI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtgConfig {
    /// The batch size. "Ideally this number represents a good balance
    /// between having enough data to perform the comparison steps of the
    /// analysis and preventing a memory overload"; the paper settles on
    /// 100,000 for production at CC-IN2P3. Its two users count differently:
    ///
    /// * the CLI's [`crate::Pipeline`] cuts a batch once it has *received*
    ///   this many records, matched or not (default 100 000, this
    ///   struct's);
    /// * `seqd`'s shard workers hand a batch to the miner once its
    ///   *unmatched residue* holds this many records (default 5 000,
    ///   `SeqdConfig::default()`), as in the Fig. 6 deployment, where only
    ///   unmatched messages reach the analyser.
    pub batch_size: usize,
    /// Save threshold: patterns matched fewer times than this are pruned as
    /// "useless" (§IV Limitations).
    pub save_threshold: u64,
    /// Scanner options. The default turns on the path FSM and single-digit
    /// time parts; [`ScannerOptions::paper`] is the published scanner.
    pub scanner: ScannerOptions,
    /// Analyser options. The default keeps a few distinct leading words
    /// apart and folds digit-bearing words into one trie node per position;
    /// [`AnalyzerOptions::paper`] is the published analyser.
    pub analyzer: AnalyzerOptions,
}

impl Default for RtgConfig {
    fn default() -> Self {
        RtgConfig {
            batch_size: 100_000,
            save_threshold: 0,
            scanner: ScannerOptions::default(),
            analyzer: AnalyzerOptions::default(),
        }
    }
}

impl RtgConfig {
    /// Configuration reproducing the seminal Sequence behaviour (the
    /// published scanner, no quality control, leading words merged), used
    /// as the baseline in the Fig. 5 experiment.
    pub fn seminal() -> Self {
        RtgConfig {
            scanner: ScannerOptions::paper(),
            analyzer: AnalyzerOptions::seminal_sequence(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_production_settings() {
        let c = RtgConfig::default();
        assert_eq!(c.batch_size, 100_000);
        assert_ne!(
            c.scanner,
            ScannerOptions::paper(),
            "production scans with the path FSM and single-digit time parts"
        );
        assert!(
            c.analyzer.quality_control,
            "RTG quality control on by default"
        );
    }

    #[test]
    fn presets() {
        let s = RtgConfig::seminal();
        assert!(!s.analyzer.quality_control);
        assert_eq!(s.analyzer, AnalyzerOptions::seminal_sequence());
        assert_eq!(s.scanner, ScannerOptions::paper());
        let paper = AnalyzerOptions::paper();
        assert!(paper.quality_control, "the published RTG analyser");
        assert_ne!(paper, AnalyzerOptions::default(), "Drain routing off");
        assert_ne!(paper, AnalyzerOptions::seminal_sequence());
    }
}
