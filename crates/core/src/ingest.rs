//! Sharded log ingestion: parallel parsing and process extraction with
//! byte-identical output for any thread count.
//!
//! Field-scale recovery logs run to millions of lines, and both steps of
//! turning them into training data — [`RecoveryLog::from_text`] and
//! [`RecoveryLog::split_processes`] — were single-threaded. This module
//! fans them out over a [`WorkerPool`] while preserving the workspace's
//! determinism contract. Both phases fan out over the same fixed
//! [`INGEST_SHARDS`] count, whatever the pool width:
//!
//! * **Parse shards** (parallel). The text is split into contiguous line
//!   ranges; each worker reads its range with
//!   [`recovery_simlog::read_entries`] into its *own* symptom catalog.
//!   The merge walks the shards in range order, interns each shard's
//!   names into the global catalog and renumbers that shard's
//!   `SymptomId`s. Because the ranges are contiguous and ordered, global
//!   ids come out in whole-text first-appearance order — exactly the ids
//!   the sequential parser assigns — and the first error of the
//!   lowest-numbered failing line wins, as it does sequentially.
//! * **Split shards** (parallel). Machines never interact during process
//!   extraction, so each worker runs the per-machine state machine over
//!   the machines of its shard (`machine.index() % shards`). The merge
//!   stable-sorts on `(start, machine)`: same-machine ties keep their
//!   per-machine chronological order (a machine lives entirely in one
//!   shard), so the result is byte-identical to the sequential split.
//!
//! Phase timings are reported through [`Telemetry`] spans
//! (`parse_shards`, `merge_entries`, `split_shards`, `merge_processes`),
//! so `--metrics-out` captures ingestion like it already captures
//! training.
//!
//! # Lenient ingestion
//!
//! Strict parsing ([`parse_log`]) stops at the first malformed line —
//! the right behavior for trusted, generated fixtures, and byte-identical
//! to [`RecoveryLog::from_text`]. Field logs are dirtier: torn writes,
//! encoding damage, and foreign lines are routine, and the paper's whole
//! premise is learning from noisy logs. So [`parse_log_with_policy`]
//! additionally offers two lenient [`ParseErrorPolicy`] modes that *skip*
//! malformed lines instead of failing:
//!
//! * [`ParseErrorPolicy::Skip`] counts skipped lines per
//!   [`ParseLogErrorKind`] and drops them;
//! * [`ParseErrorPolicy::Quarantine`] additionally retains the first
//!   [`QUARANTINE_CAPACITY`] offending lines (number, kind, truncated
//!   text) in a bounded [`QuarantineReport`] buffer for inspection.
//!
//! Strict and lenient runs are the same engine; only what happens to a
//! bad line differs. A skipped line interns nothing, so a lenient parse
//! equals a strict parse of the text with the bad lines deleted, and the
//! surviving log plus every quarantine counter is byte-identical across
//! pool sizes. Skipped lines are surfaced through telemetry
//! (`ingest.lines_skipped`, `ingest.parse_error.<kind>`,
//! `ingest.quarantined` counters and `quarantine` events), so degraded
//! ingestion is observable, never silent.

use std::fmt;
use std::str::FromStr;

use recovery_simlog::{
    extract_processes, read_entries, LogEntry, LogEvent, ParseLogError, ParseLogErrorKind,
    RecoveryLog, RecoveryProcess, SymptomCatalog, SymptomId,
};
use recovery_telemetry::{Event, Telemetry};

use crate::parallel::{chunk_ranges, WorkerPool};

/// How log-reading entry points react to a malformed line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParseErrorPolicy {
    /// Stop at the first malformed line (the strict default, byte-
    /// identical to [`RecoveryLog::from_text`]).
    #[default]
    Fail,
    /// Skip malformed lines, counting them per kind.
    Skip,
    /// Skip malformed lines and retain the first
    /// [`QUARANTINE_CAPACITY`] of them for inspection.
    Quarantine,
}

impl FromStr for ParseErrorPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fail" => Ok(ParseErrorPolicy::Fail),
            "skip" => Ok(ParseErrorPolicy::Skip),
            "quarantine" => Ok(ParseErrorPolicy::Quarantine),
            other => Err(format!(
                "unknown parse-error policy {other:?} (expected fail, skip, or quarantine)"
            )),
        }
    }
}

impl fmt::Display for ParseErrorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParseErrorPolicy::Fail => "fail",
            ParseErrorPolicy::Skip => "skip",
            ParseErrorPolicy::Quarantine => "quarantine",
        })
    }
}

/// Maximum number of malformed lines a [`QuarantineReport`] retains;
/// lines past the cap are still counted ([`QuarantineReport::dropped`])
/// but their text is not kept, so a pathologically corrupt input cannot
/// balloon memory.
pub const QUARANTINE_CAPACITY: usize = 64;

/// Longest retained excerpt of a quarantined line, in characters.
const QUARANTINE_EXCERPT_CHARS: usize = 120;

/// One malformed line retained by [`ParseErrorPolicy::Quarantine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// 1-based line number in the original text.
    pub line: usize,
    /// Which part of the line failed to parse.
    pub kind: ParseLogErrorKind,
    /// The offending text, truncated to a bounded excerpt.
    pub text: String,
}

/// What lenient ingestion skipped: per-kind counters plus (in quarantine
/// mode) a bounded buffer of the first offending lines. Strict runs
/// produce an empty ([`QuarantineReport::is_clean`]) report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    skipped: u64,
    counts: [u64; ParseLogErrorKind::COUNT],
    lines: Vec<QuarantinedLine>,
    dropped: u64,
}

impl QuarantineReport {
    /// Total malformed lines skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Malformed lines skipped for one error kind.
    pub fn count(&self, kind: ParseLogErrorKind) -> u64 {
        self.counts[kind.index()]
    }

    /// The retained lines, ascending by line number (at most
    /// [`QUARANTINE_CAPACITY`]; empty under [`ParseErrorPolicy::Skip`]).
    pub fn lines(&self) -> &[QuarantinedLine] {
        &self.lines
    }

    /// Malformed lines that exceeded the quarantine buffer and were
    /// counted but not retained.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether nothing was skipped (always true for strict runs).
    pub fn is_clean(&self) -> bool {
        self.skipped == 0
    }

    fn record(&mut self, line: usize, error: &ParseLogError, text: &str, retain: bool) {
        self.skipped += 1;
        self.counts[error.kind().index()] += 1;
        if retain && self.lines.len() < QUARANTINE_CAPACITY {
            self.lines.push(QuarantinedLine {
                line,
                kind: error.kind(),
                text: text.chars().take(QUARANTINE_EXCERPT_CHARS).collect(),
            });
        }
    }

    /// Merges shard-local reports in shard (= line) order, keeping the
    /// globally first [`QUARANTINE_CAPACITY`] retained lines.
    fn merge(reports: Vec<QuarantineReport>, retain: bool) -> QuarantineReport {
        let mut merged = QuarantineReport::default();
        for report in reports {
            merged.skipped += report.skipped;
            for (total, part) in merged.counts.iter_mut().zip(report.counts) {
                *total += part;
            }
            for line in report.lines {
                if merged.lines.len() < QUARANTINE_CAPACITY {
                    merged.lines.push(line);
                }
            }
        }
        if retain {
            merged.dropped = merged.skipped - merged.lines.len() as u64;
        }
        merged
    }

    /// Publishes the report's counters and retained lines through
    /// `telemetry`. Emitted once, post-merge, on the driver thread, so
    /// the JSONL stream is deterministic for any thread count.
    fn observe(&self, telemetry: &Telemetry) {
        if self.is_clean() {
            return;
        }
        if let Some(registry) = telemetry.registry() {
            registry.counter("ingest.lines_skipped").add(self.skipped);
            for kind in ParseLogErrorKind::ALL {
                let count = self.count(kind);
                if count > 0 {
                    registry
                        .counter(&format!("ingest.parse_error.{}", kind.label()))
                        .add(count);
                }
            }
            if !self.lines.is_empty() {
                registry
                    .counter("ingest.quarantined")
                    .add(self.lines.len() as u64);
            }
        }
        for line in &self.lines {
            telemetry.emit(
                &Event::new("quarantine")
                    .with("line", line.line)
                    .with("kind", line.kind.label())
                    .with("text", line.text.as_str()),
            );
        }
        telemetry.emit(
            &Event::new("quarantine_summary")
                .with("skipped", self.skipped)
                .with("retained", self.lines.len())
                .with("dropped", self.dropped),
        );
    }
}

/// Parses a textual recovery log, sharding the line-level work over
/// `pool`. Equivalent to [`RecoveryLog::from_text`] — same entries, same
/// symptom catalog, same first error — for every thread count.
///
/// # Errors
///
/// Returns the first [`ParseLogError`] (lowest line number), annotated
/// with its 1-based line number, exactly as the sequential parser does.
pub fn parse_log(
    text: &str,
    pool: &WorkerPool,
    telemetry: &Telemetry,
) -> Result<RecoveryLog, ParseLogError> {
    parse_log_with_policy(text, ParseErrorPolicy::Fail, pool, telemetry).map(|(log, _)| log)
}

/// [`parse_log`] with a [`ParseErrorPolicy`]. Strict
/// ([`ParseErrorPolicy::Fail`]) stops at the lowest failing line and
/// returns an empty report. The lenient policies never fail on malformed
/// lines; they skip them and describe what was skipped in the returned
/// [`QuarantineReport`]. A skipped line interns nothing, so a lenient
/// parse equals a strict parse of the text with the bad lines deleted.
///
/// # Errors
///
/// Under [`ParseErrorPolicy::Fail`] only: the first [`ParseLogError`]
/// of the text, exactly as [`RecoveryLog::from_text`].
pub fn parse_log_with_policy(
    text: &str,
    policy: ParseErrorPolicy,
    pool: &WorkerPool,
    telemetry: &Telemetry,
) -> Result<(RecoveryLog, QuarantineReport), ParseLogError> {
    let retain = policy == ParseErrorPolicy::Quarantine;
    let lines: Vec<&str> = text.lines().collect();
    let ranges = chunk_ranges(lines.len(), INGEST_SHARDS);
    let shards = {
        let _span = telemetry.span("parse_shards");
        pool.map_indexed_traced(
            ranges.len(),
            telemetry,
            |_| "shard",
            |i| {
                let range = ranges[i].clone();
                let mut symptoms = SymptomCatalog::new();
                let mut report = QuarantineReport::default();
                let numbered = (range.start + 1..).zip(lines[range].iter().copied());
                let entries = read_entries(numbered, &mut symptoms, |line, raw, error| {
                    if policy == ParseErrorPolicy::Fail {
                        return Err(error.at_line(line));
                    }
                    report.record(line, &error, raw, retain);
                    Ok(())
                })?;
                Ok((entries, symptoms, report))
            },
        )
    };
    let _span = telemetry.span("merge_entries");
    let mut symptoms = SymptomCatalog::new();
    let mut entries: Vec<LogEntry> = Vec::with_capacity(lines.len());
    let mut reports = Vec::with_capacity(shards.len());
    for shard in shards {
        // Shards are contiguous ascending line ranges and each stops at
        // its own first error, so the first failing shard in range order
        // carries the globally first error. Interning each shard's names
        // in shard order assigns global ids in whole-text first-appearance
        // order, exactly as the sequential parser does.
        let (shard_entries, shard_symptoms, report) = shard?;
        let ids: Vec<SymptomId> = shard_symptoms
            .iter()
            .map(|(_, name)| symptoms.intern(name))
            .collect();
        entries.extend(shard_entries.into_iter().map(|mut entry| {
            if let LogEvent::Symptom(id) = entry.event {
                entry.event = LogEvent::Symptom(ids[id.index() as usize]);
            }
            entry
        }));
        reports.push(report);
    }
    let report = QuarantineReport::merge(reports, retain);
    report.observe(telemetry);
    Ok((RecoveryLog::from_parts(entries, symptoms), report))
}

/// How many contiguous line ranges [`parse_log_with_policy`] and how many
/// machine partitions [`split_processes`] fan out, regardless of pool
/// width. A fixed count (rather than `pool.threads()`) keeps the fan-out
/// — and therefore the trace tree it records — structurally identical
/// for every thread count: 8 shard spans per phase whether one thread
/// runs them all or eight threads run one each. Both merges restore the
/// sequential order, so the output never depended on the shard count;
/// pinning it makes the *observation* of the work invariant too.
pub const INGEST_SHARDS: usize = 8;

/// Splits the log into complete recovery processes, sharding the
/// per-machine extraction into [`INGEST_SHARDS`] partitions over `pool`.
/// Equivalent to [`RecoveryLog::split_processes`] for every thread
/// count.
pub fn split_processes(
    log: &mut RecoveryLog,
    pool: &WorkerPool,
    telemetry: &Telemetry,
) -> Vec<RecoveryProcess> {
    // Sorting (lazy, usually a no-op) must happen on the driver before
    // the entry slice is shared read-only with the workers.
    let entries = log.entries();
    let extracted = {
        let _span = telemetry.span("split_shards");
        pool.map_indexed_traced(
            INGEST_SHARDS,
            telemetry,
            |_| "shard",
            |s| extract_processes(entries, |m| m.index() as usize % INGEST_SHARDS == s),
        )
    };
    let _span = telemetry.span("merge_processes");
    let mut processes: Vec<RecoveryProcess> = extracted.into_iter().flatten().collect();
    processes.sort_by_key(|p| (p.start(), p.machine()));
    processes
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_simlog::{GeneratorConfig, LogGenerator};

    fn sample_text() -> String {
        LogGenerator::new(GeneratorConfig::small())
            .generate()
            .log
            .to_text()
    }

    #[test]
    fn sharded_parse_matches_sequential() {
        let text = sample_text();
        let sequential = RecoveryLog::from_text(&text).unwrap();
        for threads in [1, 2, 3, 8] {
            let sharded = parse_log(&text, &WorkerPool::new(threads), &Telemetry::disabled())
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
            assert_eq!(sharded, sequential, "{threads} threads");
        }
    }

    #[test]
    fn sharded_split_matches_sequential() {
        let text = sample_text();
        let expected = RecoveryLog::from_text(&text).unwrap().split_processes();
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut log = parse_log(&text, &pool, &Telemetry::disabled()).unwrap();
            let processes = split_processes(&mut log, &pool, &Telemetry::disabled());
            assert_eq!(processes, expected, "{threads} threads");
        }
    }

    #[test]
    fn sharded_parse_reports_the_first_error() {
        let mut text = sample_text();
        let lines = text.lines().count();
        // Corrupt two lines; the earlier one must win under any sharding.
        let mut corrupted: Vec<String> = text.lines().map(str::to_owned).collect();
        corrupted[lines / 3] = "garbage".into();
        corrupted[2 * lines / 3] = "more garbage".into();
        text = corrupted.join("\n");
        let expected = RecoveryLog::from_text(&text).unwrap_err();
        for threads in [2, 4, 8] {
            let err = parse_log(&text, &WorkerPool::new(threads), &Telemetry::disabled())
                .expect_err("corrupted log must not parse");
            assert_eq!(err.line(), expected.line(), "{threads} threads");
            assert_eq!(err.line(), Some(lines / 3 + 1));
        }
    }

    #[test]
    fn policy_parses_from_cli_spellings() {
        assert_eq!("fail".parse(), Ok(ParseErrorPolicy::Fail));
        assert_eq!("skip".parse(), Ok(ParseErrorPolicy::Skip));
        assert_eq!("quarantine".parse(), Ok(ParseErrorPolicy::Quarantine));
        assert!("lenient".parse::<ParseErrorPolicy>().is_err());
        assert_eq!(ParseErrorPolicy::default(), ParseErrorPolicy::Fail);
        assert_eq!(ParseErrorPolicy::Quarantine.to_string(), "quarantine");
    }

    #[test]
    fn strict_policy_is_the_existing_parser() {
        let text = sample_text();
        let expected = RecoveryLog::from_text(&text).unwrap();
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let (log, report) =
                parse_log_with_policy(&text, ParseErrorPolicy::Fail, &pool, &Telemetry::disabled())
                    .unwrap();
            assert_eq!(log, expected, "{threads} threads");
            assert!(report.is_clean());
        }
    }

    #[test]
    fn lenient_parse_skips_and_reports_malformed_lines() {
        let text = sample_text();
        let mut corrupted: Vec<String> = text.lines().map(str::to_owned).collect();
        let total = corrupted.len();
        corrupted[total / 4] = "garbage without tabs".into();
        corrupted[total / 2] = "also garbage".into();
        let corrupted = corrupted.join("\n");
        let mut baseline: Option<(RecoveryLog, QuarantineReport)> = None;
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            let (log, report) = parse_log_with_policy(
                &corrupted,
                ParseErrorPolicy::Quarantine,
                &pool,
                &Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(report.skipped(), 2, "{threads} threads");
            // A tab-less line dies parsing its first (timestamp) field.
            assert_eq!(report.count(ParseLogErrorKind::Timestamp), 2);
            assert_eq!(report.lines().len(), 2);
            assert_eq!(report.lines()[0].line, total / 4 + 1);
            assert_eq!(report.lines()[0].text, "garbage without tabs");
            assert_eq!(report.dropped(), 0);
            match &baseline {
                None => baseline = Some((log, report)),
                Some((first_log, first_report)) => {
                    assert_eq!(&log, first_log, "{threads} threads");
                    assert_eq!(&report, first_report, "{threads} threads");
                }
            }
        }
        // Skip mode: same counters, no retained lines.
        let (_, skip_report) = parse_log_with_policy(
            &corrupted,
            ParseErrorPolicy::Skip,
            &WorkerPool::new(2),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(skip_report.skipped(), 2);
        assert!(skip_report.lines().is_empty());
        assert_eq!(skip_report.dropped(), 0);
    }

    #[test]
    fn lenient_parse_of_a_clean_log_matches_strict() {
        let text = sample_text();
        let strict = RecoveryLog::from_text(&text).unwrap();
        for policy in [ParseErrorPolicy::Skip, ParseErrorPolicy::Quarantine] {
            let (log, report) =
                parse_log_with_policy(&text, policy, &WorkerPool::new(3), &Telemetry::disabled())
                    .unwrap();
            assert_eq!(log, strict, "{policy}");
            assert!(report.is_clean(), "{policy}");
        }
    }

    #[test]
    fn quarantine_buffer_is_bounded() {
        let mut text = String::from("# all garbage\n");
        let total = super::QUARANTINE_CAPACITY + 20;
        for i in 0..total {
            text.push_str(&format!("junk line {i}\n"));
        }
        let (log, report) = parse_log_with_policy(
            &text,
            ParseErrorPolicy::Quarantine,
            &WorkerPool::new(4),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(log.is_empty());
        assert_eq!(report.skipped(), total as u64);
        assert_eq!(report.lines().len(), super::QUARANTINE_CAPACITY);
        assert_eq!(report.dropped(), 20);
        // The retained lines are the globally first ones, in order.
        for (i, line) in report.lines().iter().enumerate() {
            assert_eq!(
                line.line,
                i + 2,
                "line numbers ascend from after the comment"
            );
        }
    }

    #[test]
    fn quarantine_telemetry_counts_by_kind() {
        let text = sample_text();
        let mut corrupted: Vec<String> = text.lines().map(str::to_owned).collect();
        // A valid time and machine with no third field: Entry kind.
        corrupted[3] = "2006-01-01 00:00:00\tM0007".into();
        let corrupted = corrupted.join("\n");
        let telemetry = Telemetry::new();
        let (_, report) = parse_log_with_policy(
            &corrupted,
            ParseErrorPolicy::Quarantine,
            &WorkerPool::new(2),
            &telemetry,
        )
        .unwrap();
        assert_eq!(report.skipped(), 1);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters["ingest.lines_skipped"], 1);
        assert_eq!(snap.counters["ingest.parse_error.entry"], 1);
        assert_eq!(snap.counters["ingest.quarantined"], 1);
    }

    #[test]
    fn empty_and_comment_only_logs_ingest_cleanly() {
        for text in ["", "# only a comment\n\n"] {
            let pool = WorkerPool::new(4);
            let mut log = parse_log(text, &pool, &Telemetry::disabled()).unwrap();
            let processes = split_processes(&mut log, &pool, &Telemetry::disabled());
            assert!(log.is_empty());
            assert!(processes.is_empty());
        }
    }
}
