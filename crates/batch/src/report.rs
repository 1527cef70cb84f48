//! JSONL stream report and exit-code policy for batch runs.
//!
//! Each completed job becomes exactly one JSON object on its own line.
//! Records carry only fields that are pure functions of the instance and
//! options — never wall times or cache counters — so the report is
//! byte-identical for any `--jobs` setting and any hit/miss interleaving.
//! Timing and memo statistics are reported separately via [`stats_json`].

use eco_core::{peak_rss_bytes, render_counters, JsonObj};

use crate::json::{self, Value};
use crate::runner::{BatchOutcome, JobRecord, JobStatus};

/// Appends a job record's scheduling-independent fields (`name`,
/// `status`, `targets`, `patches`, `cost`, `size`, `verified`, `detail`)
/// to `obj`: the one rendering of a record, shared by [`record_json`]
/// and eco-serve's `run` response.
pub fn record_fields(obj: JsonObj, record: &JobRecord) -> JsonObj {
    obj.str("name", &record.name)
        .str("status", record.status.tag())
        .u64("targets", record.targets as u64)
        .u64("patches", record.patches as u64)
        .u64("cost", record.cost)
        .u64("size", record.size)
        .bool("verified", record.verified)
        .str("detail", &record.detail)
}

/// Renders one job record as a single-line JSON object (no trailing
/// newline).
pub fn record_json(record: &JobRecord) -> String {
    let obj = JsonObj::new()
        .u64("pass", record.pass as u64)
        .u64("job", record.index as u64);
    record_fields(obj, record).build()
}

/// Parses a [`record_json`] line back into a [`JobRecord`] — the
/// journal-replay inverse used by `--resume`. Round-trip exact:
/// `record_json(record_from_json(line)?) == line` for every line this
/// module emits.
pub fn record_from_json(line: &str) -> Result<JobRecord, String> {
    let Value::Obj(fields) = json::parse(line)? else {
        return Err("job record: expected a JSON object".into());
    };
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("job record: missing `{key}`"))
    };
    let as_u64 = |key: &str| match get(key)? {
        Value::Int(n) => Ok(*n),
        other => Err(format!(
            "job record: `{key}` expects a number, got {}",
            other.kind()
        )),
    };
    let as_str = |key: &str| match get(key)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "job record: `{key}` expects a string, got {}",
            other.kind()
        )),
    };
    let status_tag = as_str("status")?;
    let status = JobStatus::from_tag(&status_tag)
        .ok_or_else(|| format!("job record: unknown status `{status_tag}`"))?;
    let verified = match get("verified")? {
        Value::Bool(b) => *b,
        other => {
            return Err(format!(
                "job record: `verified` expects a bool, got {}",
                other.kind()
            ))
        }
    };
    Ok(JobRecord {
        pass: as_u64("pass")? as usize,
        index: as_u64("job")? as usize,
        name: as_str("name")?,
        status,
        targets: as_u64("targets")? as usize,
        patches: as_u64("patches")? as usize,
        cost: as_u64("cost")?,
        size: as_u64("size")?,
        verified,
        detail: as_str("detail")?,
    })
}

/// Renders records as JSONL in deterministic `(pass, job)` order — one
/// line per record, each newline-terminated.
pub fn records_jsonl(records: &[JobRecord]) -> String {
    let mut sorted: Vec<&JobRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.pass, r.index));
    let mut out = String::new();
    for record in sorted {
        out.push_str(&record_json(record));
        out.push('\n');
    }
    out
}

/// Batch exit code: the most severe job outcome wins, mirroring
/// `eco-patch` (`1` error > `2` unrectifiable > `4` partial > `0`).
pub fn exit_code(records: &[JobRecord]) -> u8 {
    let mut code = 0;
    for record in records {
        let c = match record.status {
            JobStatus::Error => 1,
            JobStatus::Unrectifiable => 2,
            JobStatus::Partial => 4,
            JobStatus::Complete => 0,
        };
        // Severity order, not numeric order.
        let rank = |c: u8| match c {
            1 => 3,
            2 => 2,
            4 => 1,
            _ => 0,
        };
        if rank(c) > rank(code) {
            code = c;
        }
    }
    code
}

/// Renders the non-deterministic run summary (status tallies, per-pass
/// wall times, shared-cache counters) as one JSON object for `--stats`.
pub fn stats_json(outcome: &BatchOutcome) -> String {
    let count = |status: JobStatus| {
        outcome
            .records
            .iter()
            .filter(|r| r.status == status)
            .count() as u64
    };
    let walls: Vec<String> = outcome
        .pass_wall
        .iter()
        .map(|d| format!("{:.6}", d.as_secs_f64()))
        .collect();
    let obj = JsonObj::new()
        .u64("passes", outcome.pass_wall.len() as u64)
        .u64(
            "jobs",
            (outcome.records.len() / outcome.pass_wall.len().max(1)) as u64,
        )
        .u64("complete", count(JobStatus::Complete))
        .u64("partial", count(JobStatus::Partial))
        .u64("unrectifiable", count(JobStatus::Unrectifiable))
        .u64("error", count(JobStatus::Error))
        .u64("reused", outcome.reused)
        .u64("memo_loaded", outcome.memo_loaded)
        .u64("persist_errors", outcome.persist_errors)
        .arr("pass_wall_s", &walls)
        .raw("memo", &render_counters(&outcome.memo.fields(), true));
    // Like the wall times, peak RSS is part of the non-deterministic
    // summary, never of the per-job records.
    let obj = match peak_rss_bytes() {
        Some(b) => obj.u64("peak_rss_bytes", b),
        None => obj.raw("peak_rss_bytes", "null"),
    };
    obj.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::MemoStats;
    use std::time::Duration;

    fn record(pass: usize, index: usize, status: JobStatus) -> JobRecord {
        JobRecord {
            pass,
            index,
            name: format!("job{index}"),
            status,
            targets: 1,
            patches: usize::from(status == JobStatus::Complete),
            cost: 3,
            size: 2,
            verified: status == JobStatus::Complete,
            detail: String::new(),
        }
    }

    #[test]
    fn jsonl_is_sorted_by_pass_then_index() {
        let records = vec![
            record(1, 0, JobStatus::Complete),
            record(0, 1, JobStatus::Complete),
            record(0, 0, JobStatus::Complete),
        ];
        let lines: Vec<String> = records_jsonl(&records)
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"pass\": 0, \"job\": 0"));
        assert!(lines[1].starts_with("{\"pass\": 0, \"job\": 1"));
        assert!(lines[2].starts_with("{\"pass\": 1, \"job\": 0"));
    }

    #[test]
    fn record_json_is_stable() {
        let json = record_json(&record(0, 2, JobStatus::Complete));
        assert_eq!(
            json,
            "{\"pass\": 0, \"job\": 2, \"name\": \"job2\", \"status\": \"complete\", \
             \"targets\": 1, \"patches\": 1, \"cost\": 3, \"size\": 2, \
             \"verified\": true, \"detail\": \"\"}"
        );
    }

    #[test]
    fn record_json_round_trips_through_the_parser() {
        let mut original = record(1, 3, JobStatus::Partial);
        original.detail = "budget: \"deadline\" hit\n2 of 3".into();
        let line = record_json(&original);
        let parsed = record_from_json(&line).expect("parse");
        assert_eq!(parsed, original);
        assert_eq!(record_json(&parsed), line, "byte-identical re-render");
        assert!(record_from_json("[]").is_err());
        assert!(record_from_json("{\"pass\": 0}").is_err(), "missing fields");
        assert!(
            record_from_json(&line.replace("partial", "bogus")).is_err(),
            "unknown status tag"
        );
    }

    #[test]
    fn exit_code_takes_worst_severity() {
        use JobStatus::*;
        let rec = |s| record(0, 0, s);
        assert_eq!(exit_code(&[]), 0);
        assert_eq!(exit_code(&[rec(Complete)]), 0);
        assert_eq!(exit_code(&[rec(Complete), rec(Partial)]), 4);
        assert_eq!(exit_code(&[rec(Partial), rec(Unrectifiable)]), 2);
        assert_eq!(
            exit_code(&[rec(Unrectifiable), rec(Error), rec(Complete)]),
            1
        );
    }

    #[test]
    fn stats_json_has_summary_and_memo_keys() {
        let outcome = BatchOutcome {
            records: vec![
                record(0, 0, JobStatus::Complete),
                record(0, 1, JobStatus::Error),
            ],
            pass_wall: vec![Duration::from_millis(5)],
            memo: MemoStats::default(),
            reused: 0,
            memo_loaded: 0,
            persist_errors: 0,
        };
        let json = stats_json(&outcome);
        for key in [
            "\"passes\"",
            "\"jobs\": 2",
            "\"complete\": 1",
            "\"error\": 1",
            "\"pass_wall_s\"",
            "\"memo\"",
            "\"hits\"",
            "\"peak_rss_bytes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
