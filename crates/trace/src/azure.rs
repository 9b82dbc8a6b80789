//! The Azure Functions 2019 dataset schema (Shahrad et al., ATC '20).
//!
//! The published dataset consists of three CSV families; this module models
//! one day of each, keyed by `(app, function)` hashes:
//!
//! - **invocations**: per-function counts in 1440 minute-wide buckets,
//! - **durations**: per-function average / minimum / maximum execution
//!   times in milliseconds,
//! - **memory**: per-*application* average allocated MB.
//!
//! [`AzureDataset::parse_csv`] reads the real files (only the columns this
//! schema needs); [`AzureDataset::to_csv`] writes the same format, so the
//! synthetic generator's output is interchangeable with the real data.

use std::collections::BTreeMap;
use std::fmt;

/// Minutes in the modeled day.
pub const MINUTES_PER_DAY: usize = 1440;

/// Identifies a function within an application.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AzureFunctionKey {
    /// Application hash (functions of one app share memory accounting).
    pub app: String,
    /// Function hash.
    pub func: String,
}

impl fmt::Display for AzureFunctionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.app, self.func)
    }
}

/// Per-function day of data.
#[derive(Debug, Clone, PartialEq)]
pub struct AzureFunction {
    /// Invocation counts per minute-wide bucket (length 1440).
    pub per_minute: Vec<u32>,
    /// Average execution time in ms.
    pub avg_duration_ms: f64,
    /// Minimum execution time in ms.
    pub min_duration_ms: f64,
    /// Maximum execution time in ms.
    pub max_duration_ms: f64,
}

impl AzureFunction {
    /// Total invocations in the day.
    pub fn total_invocations(&self) -> u64 {
        self.per_minute.iter().map(|&c| c as u64).sum()
    }
}

/// One day of the dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AzureDataset {
    /// Per-function data, deterministically ordered by key.
    pub functions: BTreeMap<AzureFunctionKey, AzureFunction>,
    /// Per-application average allocated memory in MB.
    pub app_memory_mb: BTreeMap<String, f64>,
}

/// Error from parsing the CSV files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCsvError {
    line: usize,
    what: String,
}

impl ParseCsvError {
    fn new(line: usize, what: impl Into<String>) -> Self {
        ParseCsvError {
            line,
            what: what.into(),
        }
    }
}

impl fmt::Display for ParseCsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csv line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ParseCsvError {}

fn split_csv(line: &str) -> Vec<&str> {
    line.split(',').map(str::trim).collect()
}

fn col_index(header: &[&str], name: &str, line: usize) -> Result<usize, ParseCsvError> {
    header
        .iter()
        .position(|&h| h.eq_ignore_ascii_case(name))
        .ok_or_else(|| ParseCsvError::new(line, format!("missing column {name:?}")))
}

impl AzureDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the dataset has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Total invocations across all functions.
    pub fn total_invocations(&self) -> u64 {
        self.functions.values().map(|f| f.total_invocations()).sum()
    }

    /// Number of functions in each application.
    pub fn app_sizes(&self) -> BTreeMap<&str, usize> {
        let mut sizes: BTreeMap<&str, usize> = BTreeMap::new();
        for key in self.functions.keys() {
            *sizes.entry(key.app.as_str()).or_insert(0) += 1;
        }
        sizes
    }

    /// Parses the three CSV files of the published dataset.
    ///
    /// Functions missing a duration row are skipped (as the paper's
    /// preprocessing does); applications missing a memory row are assigned
    /// `default_app_mb`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseCsvError`] for malformed headers or unparsable
    /// numeric fields.
    pub fn parse_csv(
        invocations_csv: &str,
        durations_csv: &str,
        memory_csv: &str,
        default_app_mb: f64,
    ) -> Result<Self, ParseCsvError> {
        let mut dataset = AzureDataset::new();

        // --- memory: HashOwner,HashApp,SampleCount,AverageAllocatedMb ---
        let mut mem_lines = memory_csv.lines().enumerate();
        if let Some((n, header)) = mem_lines.next() {
            let header = split_csv(header);
            let app_col = col_index(&header, "HashApp", n + 1)?;
            let mb_col = col_index(&header, "AverageAllocatedMb", n + 1)?;
            for (n, line) in mem_lines {
                if line.trim().is_empty() {
                    continue;
                }
                let cells = split_csv(line);
                let app = cells
                    .get(app_col)
                    .ok_or_else(|| ParseCsvError::new(n + 1, "short row"))?;
                let mb: f64 = cells
                    .get(mb_col)
                    .ok_or_else(|| ParseCsvError::new(n + 1, "short row"))?
                    .parse()
                    .map_err(|e| ParseCsvError::new(n + 1, format!("bad memory: {e}")))?;
                dataset.app_memory_mb.insert(app.to_string(), mb);
            }
        }

        // --- durations: ...,HashApp,HashFunction,Average,...,Minimum,Maximum ---
        let mut durations: BTreeMap<AzureFunctionKey, (f64, f64, f64)> = BTreeMap::new();
        let mut dur_lines = durations_csv.lines().enumerate();
        if let Some((n, header)) = dur_lines.next() {
            let header = split_csv(header);
            let app_col = col_index(&header, "HashApp", n + 1)?;
            let func_col = col_index(&header, "HashFunction", n + 1)?;
            let avg_col = col_index(&header, "Average", n + 1)?;
            let min_col = col_index(&header, "Minimum", n + 1)?;
            let max_col = col_index(&header, "Maximum", n + 1)?;
            for (n, line) in dur_lines {
                if line.trim().is_empty() {
                    continue;
                }
                let cells = split_csv(line);
                let get = |col: usize| -> Result<&str, ParseCsvError> {
                    cells
                        .get(col)
                        .copied()
                        .ok_or_else(|| ParseCsvError::new(n + 1, "short row"))
                };
                let parse = |v: &str| -> Result<f64, ParseCsvError> {
                    v.parse()
                        .map_err(|e| ParseCsvError::new(n + 1, format!("bad duration: {e}")))
                };
                let key = AzureFunctionKey {
                    app: get(app_col)?.to_string(),
                    func: get(func_col)?.to_string(),
                };
                let avg = parse(get(avg_col)?)?;
                let min = parse(get(min_col)?)?;
                let max = parse(get(max_col)?)?;
                durations.insert(key, (avg, min, max));
            }
        }

        // --- invocations: ...,HashApp,HashFunction,Trigger,1..1440 ---
        let mut inv_lines = invocations_csv.lines().enumerate();
        if let Some((n, header)) = inv_lines.next() {
            let header = split_csv(header);
            let app_col = col_index(&header, "HashApp", n + 1)?;
            let func_col = col_index(&header, "HashFunction", n + 1)?;
            let first_minute = col_index(&header, "1", n + 1)?;
            for (n, line) in inv_lines {
                if line.trim().is_empty() {
                    continue;
                }
                let cells = split_csv(line);
                let key = AzureFunctionKey {
                    app: cells
                        .get(app_col)
                        .ok_or_else(|| ParseCsvError::new(n + 1, "short row"))?
                        .to_string(),
                    func: cells
                        .get(func_col)
                        .ok_or_else(|| ParseCsvError::new(n + 1, "short row"))?
                        .to_string(),
                };
                let Some(&(avg, min, max)) = durations.get(&key) else {
                    continue; // no duration data → skip, like the paper
                };
                let mut per_minute = vec![0u32; MINUTES_PER_DAY];
                for (i, slot) in per_minute.iter_mut().enumerate() {
                    if let Some(cell) = cells.get(first_minute + i) {
                        *slot = cell.parse().map_err(|e| {
                            ParseCsvError::new(n + 1, format!("bad count (min {}): {e}", i + 1))
                        })?;
                    }
                }
                dataset.functions.insert(
                    key.clone(),
                    AzureFunction {
                        per_minute,
                        avg_duration_ms: avg,
                        min_duration_ms: min,
                        max_duration_ms: max,
                    },
                );
                dataset
                    .app_memory_mb
                    .entry(key.app)
                    .or_insert(default_app_mb);
            }
        }

        Ok(dataset)
    }

    /// Serializes the dataset back to the three CSV documents
    /// `(invocations, durations, memory)`.
    pub fn to_csv(&self) -> (String, String, String) {
        let mut inv = String::from("HashOwner,HashApp,HashFunction,Trigger");
        for m in 1..=MINUTES_PER_DAY {
            inv.push_str(&format!(",{m}"));
        }
        inv.push('\n');
        let mut dur =
            String::from("HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n");
        let mut mem = String::from("HashOwner,HashApp,SampleCount,AverageAllocatedMb\n");

        for (key, f) in &self.functions {
            inv.push_str(&format!("owner,{},{},other", key.app, key.func));
            for &c in &f.per_minute {
                inv.push_str(&format!(",{c}"));
            }
            inv.push('\n');
            dur.push_str(&format!(
                "owner,{},{},{},{},{},{}\n",
                key.app,
                key.func,
                f.avg_duration_ms,
                f.total_invocations(),
                f.min_duration_ms,
                f.max_duration_ms
            ));
        }
        for (app, mb) in &self.app_memory_mb {
            mem.push_str(&format!("owner,{app},1,{mb}\n"));
        }
        (inv, dur, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> AzureDataset {
        let mut d = AzureDataset::new();
        let mut per_minute = vec![0u32; MINUTES_PER_DAY];
        per_minute[0] = 1;
        per_minute[10] = 3;
        d.functions.insert(
            AzureFunctionKey {
                app: "appA".into(),
                func: "f1".into(),
            },
            AzureFunction {
                per_minute,
                avg_duration_ms: 250.0,
                min_duration_ms: 100.0,
                max_duration_ms: 1500.0,
            },
        );
        d.app_memory_mb.insert("appA".into(), 320.0);
        d
    }

    #[test]
    fn totals() {
        let d = tiny_dataset();
        assert_eq!(d.len(), 1);
        assert_eq!(d.total_invocations(), 4);
        assert_eq!(d.app_sizes().get("appA"), Some(&1));
    }

    #[test]
    fn csv_round_trip() {
        let d = tiny_dataset();
        let (inv, dur, mem) = d.to_csv();
        let parsed = AzureDataset::parse_csv(&inv, &dur, &mem, 170.0).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn missing_duration_row_skips_function() {
        let d = tiny_dataset();
        let (inv, _dur, mem) = d.to_csv();
        let empty_dur = "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n";
        let parsed = AzureDataset::parse_csv(&inv, empty_dur, &mem, 170.0).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn missing_memory_gets_default() {
        let d = tiny_dataset();
        let (inv, dur, _mem) = d.to_csv();
        let empty_mem = "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n";
        let parsed = AzureDataset::parse_csv(&inv, &dur, empty_mem, 222.0).unwrap();
        assert_eq!(parsed.app_memory_mb.get("appA"), Some(&222.0));
    }

    #[test]
    fn malformed_count_is_an_error() {
        let d = tiny_dataset();
        let (inv, dur, mem) = d.to_csv();
        let bad = inv.replace(",3", ",x");
        let err = AzureDataset::parse_csv(&bad, &dur, &mem, 170.0).unwrap_err();
        assert!(err.to_string().contains("bad count"));
    }

    #[test]
    fn missing_header_column_is_an_error() {
        let err =
            AzureDataset::parse_csv("nope\n", "HashOwner\n", "HashOwner\n", 170.0).unwrap_err();
        assert!(err.to_string().contains("missing column"));
    }

    #[test]
    fn short_minute_rows_pad_with_zero() {
        // A row with only the first few minute columns parses fine.
        let inv = "HashOwner,HashApp,HashFunction,Trigger,1,2,3\nowner,a,f,timer,5,0,2\n";
        let dur = "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\nowner,a,f,100,7,50,400\n";
        let mem = "HashOwner,HashApp,SampleCount,AverageAllocatedMb\nowner,a,1,128\n";
        let d = AzureDataset::parse_csv(inv, dur, mem, 170.0).unwrap();
        let f = d.functions.values().next().unwrap();
        assert_eq!(f.total_invocations(), 7);
        assert_eq!(f.per_minute.len(), MINUTES_PER_DAY);
    }
}
