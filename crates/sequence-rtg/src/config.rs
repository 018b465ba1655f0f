//! Runtime configuration for Sequence-RTG.

use sequence_core::{AnalyzerOptions, ScannerOptions};

/// Configuration shared by the library entry points and the CLI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtgConfig {
    /// Records per analysis batch. "Ideally this number represents a good
    /// balance between having enough data to perform the comparison steps of
    /// the analysis and preventing a memory overload"; the paper settles on
    /// 100,000 for production at CC-IN2P3.
    pub batch_size: usize,
    /// Save threshold: patterns matched fewer times than this are pruned as
    /// "useless" (§IV Limitations).
    pub save_threshold: u64,
    /// Scanner options (datetime leniency, path FSM).
    pub scanner: ScannerOptions,
    /// Analyser options (quality control).
    pub analyzer: AnalyzerOptions,
    /// Split semi-constant variables into per-value patterns (the paper's
    /// future-work extension; off by default).
    pub semi_constant_split: bool,
}

impl Default for RtgConfig {
    fn default() -> Self {
        RtgConfig {
            batch_size: 100_000,
            save_threshold: 0,
            scanner: ScannerOptions::default(),
            analyzer: AnalyzerOptions::default(),
            semi_constant_split: false,
        }
    }
}

impl RtgConfig {
    /// Configuration reproducing the seminal Sequence behaviour (no quality
    /// control), used as the baseline in the Fig. 5 experiment.
    pub fn seminal() -> Self {
        RtgConfig {
            analyzer: AnalyzerOptions::seminal_sequence(),
            ..Default::default()
        }
    }

    /// Everything on: future-work scanner extensions and semi-constant
    /// splitting.
    pub fn extended() -> Self {
        RtgConfig {
            scanner: ScannerOptions::extended(),
            semi_constant_split: true,
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
        assert!(
            !c.scanner.allow_single_digit_time,
            "paper limitation preserved by default"
        );
        assert!(
            c.analyzer.quality_control,
            "RTG quality control on by default"
        );
    }

    #[test]
    fn presets() {
        assert!(!RtgConfig::seminal().analyzer.quality_control);
        let e = RtgConfig::extended();
        assert!(e.scanner.detect_paths && e.scanner.allow_single_digit_time);
        assert!(e.semi_constant_split);
    }
}
