//! The metric catalogue and the result of one run.
//!
//! `BENCHMARK.json` is the one place metric names, units, directions and
//! bounds are written down; every `run` and `compare` reads them from it.

use crate::json::Json;
use crate::stats::Summary;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which a gated metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// A phase whose generator sent more than this share of its requests
/// later than the latency limit after they were due measured the
/// generator, not the servers.
pub const MAX_LATE_SHARE: f64 = 0.01;

/// What `BENCHMARK.json` lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    pub workloads: Vec<String>,
    /// Gated metrics, the same names on every workload, from untraced runs.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics, from traced runs; printed, never gated. A layer
    /// that is not on a workload's path reads 0 there.
    pub per_layer: Vec<MetricDef>,
}

impl Catalogue {
    pub fn parse(benchmark_json: &str) -> Result<Catalogue, String> {
        let spec = Json::parse(benchmark_json)?;
        let list = |key: &str| {
            spec.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json has no {key} list"))
        };
        let text = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without {key}"))
        };
        let metrics = |key: &str| {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        better: match text(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("bad better {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Catalogue {
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// What a traced run gathers, by catalogue name: probe summaries and
/// single values measured on the workload.
#[derive(Debug, Default)]
pub struct LayerValues(HashMap<String, Summary>);

impl LayerValues {
    pub fn from_probes(probes: Vec<(&'static str, Summary)>) -> LayerValues {
        LayerValues(
            probes
                .into_iter()
                .map(|(name, s)| (name.to_string(), s))
                .collect(),
        )
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), Summary::single(value));
    }

    /// Value recorded under `name`; 0 when nothing was.
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.value)
    }

    /// Every per-layer metric in catalogue order; a layer the run did not
    /// touch reads 0. A value recorded under a name the catalogue does
    /// not list is a bug in the harness.
    pub fn into_metrics(self, catalogue: &Catalogue) -> Result<Vec<(MetricDef, Summary)>, String> {
        let listed = |name: &String| catalogue.per_layer.iter().any(|def| &def.name == name);
        if let Some(stray) = self.0.keys().find(|name| !listed(name)) {
            return Err(format!("BENCHMARK.json lists no per-layer metric {stray}"));
        }
        Ok(catalogue
            .per_layer
            .iter()
            .map(|def| {
                let summary = self.0.get(&def.name).copied();
                (def.clone(), summary.unwrap_or(Summary::single(0.0)))
            })
            .collect())
    }
}

/// One named pass/fail check made inside a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one `run` produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub env: Vec<(String, Json)>,
    pub attempted: u64,
    pub failed: u64,
    /// Share of the reported phase's requests the generator sent later
    /// than the latency limit after they were due; 0 without a generator.
    pub late_share: f64,
    /// Timed phases made, each on fresh servers, until one was on
    /// schedule; the last is the one reported.
    pub attempts: usize,
    pub checks: Vec<Check>,
    /// Every metric of the run's mode, in catalogue order.
    pub metrics: Vec<(MetricDef, Summary)>,
    /// Extra lines for the human reader (outcome tallies, set-up detail).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Fills in the end-to-end metrics of an untraced run.
    pub fn set_end_to_end(
        &mut self,
        catalogue: &Catalogue,
        measured: &HashMap<&str, Summary>,
    ) -> Result<(), String> {
        self.metrics = catalogue
            .end_to_end
            .iter()
            .map(|def| {
                let summary = measured
                    .get(def.name.as_str())
                    .ok_or(format!("end-to-end metric {} was not measured", def.name))?;
                Ok((def.clone(), *summary))
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    /// The one line the driver reads: reported values only.
    pub fn driver_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(def, s)| {
            (
                def.name.as_str(),
                Json::obj([
                    ("value", Json::Num(s.value)),
                    ("unit", Json::str(&def.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }

    /// The full record `--out` writes and `compare` reads.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(def, s)| {
            (
                def.name.as_str(),
                Json::obj([
                    ("unit", Json::str(&def.unit)),
                    ("better", Json::str(def.better.label())),
                    ("value", Json::Num(s.value)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]),
            )
        });
        let checks = self.checks.iter().map(|c| {
            Json::obj([
                ("name", Json::str(&c.name)),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::str(&c.detail)),
            ])
        });
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("late_share", Json::Num(self.late_share)),
            ("attempts", Json::Num(self.attempts as f64)),
            ("env", Json::Obj(self.env.clone())),
            ("checks", Json::Arr(checks.collect())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The table a person reads: every metric by name with unit, value,
    /// quartiles and sample count, then the checks.
    pub fn print_table(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            }
        );
        for (k, v) in &self.env {
            println!("  env {k} = {}", v.to_line());
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  {:<40} {:>8} {:>14} {:>14} {:>14} {:>4}",
            "metric", "unit", "value", "q1", "q3", "n"
        );
        for (def, s) in &self.metrics {
            println!(
                "  {:<40} {:>8} {:>14.4} {:>14.4} {:>14.4} {:>4}",
                def.name, def.unit, s.value, s.q1, s.q3, s.n
            );
        }
        println!("  attempted={} failed={}", self.attempted, self.failed);
        for c in &self.checks {
            println!(
                "  check {:<34} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
    }
}

/// One (workload, metric) reading loaded back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Loaded {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub late_share: f64,
    pub metrics: Vec<(String, Summary)>,
}

/// Reads a result file: one JSON object per line, one line per run.
pub fn load(text: &str) -> Result<Vec<Loaded>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Json::parse(line)?;
            let num = |key: &str| v.get(key).and_then(Json::as_f64).ok_or(format!("no {key}"));
            let metrics = v
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("no metrics")?
                .iter()
                .map(|(name, m)| {
                    let f = |key: &str| {
                        m.get(key)
                            .and_then(Json::as_f64)
                            .ok_or(format!("metric {name} has no {key}"))
                    };
                    Ok((
                        name.clone(),
                        Summary {
                            value: f("value")?,
                            q1: f("q1")?,
                            q3: f("q3")?,
                            n: f("n")? as usize,
                        },
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Loaded {
                workload: v
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("no workload")?
                    .to_string(),
                attempted: num("attempted")? as u64,
                failed: num("failed")? as u64,
                correct: v.get("correct") == Some(&Json::Bool(true)),
                late_share: num("late_share")?,
                metrics,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, unit: &str, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: name.to_string(),
            unit: unit.to_string(),
            better: Better::Lower,
            bound,
        }
    }

    fn sample_result() -> RunResult {
        RunResult {
            workload: "serve_warm".to_string(),
            traced: false,
            env: vec![("nproc".to_string(), Json::Num(2.0))],
            attempted: 1000,
            failed: 0,
            late_share: 0.004,
            attempts: 2,
            checks: vec![Check {
                name: "conservation".to_string(),
                ok: true,
                detail: "1000 == 1000".to_string(),
            }],
            metrics: vec![
                (def("setup_s", "s", Some(0.25)), Summary::single(0.8127)),
                (
                    def("rss_mb", "MB", Some(0.1)),
                    Summary {
                        value: 61.25,
                        q1: 60.0,
                        q3: 63.5,
                        n: 10,
                    },
                ),
            ],
            notes: Vec::new(),
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample_result();
        let loaded = load(&r.to_json().to_line()).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].workload, "serve_warm");
        assert_eq!((loaded[0].attempted, loaded[0].failed), (1000, 0));
        assert!(loaded[0].correct);
        assert_eq!(loaded[0].late_share, 0.004);
        assert_eq!(loaded[0].metrics[1].0, "rss_mb");
        assert_eq!(loaded[0].metrics[1].1, r.metrics[1].1);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample_result().driver_line();
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"attempted\": 1000,"));
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_failed_check_or_request_makes_the_run_incorrect() {
        let mut r = sample_result();
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.checks[0].ok = false;
        assert!(!r.correct());
    }

    #[test]
    fn the_catalogue_is_read_from_benchmark_json() {
        let text = r#"{"workloads": [{"name": "hit", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "cache_hits", "unit": "count", "better": "higher"}]}"#;
        let c = Catalogue::parse(text).unwrap();
        assert_eq!(c.workloads, ["hit"]);
        assert_eq!(c.end_to_end, [def("setup_s", "s", Some(0.25))]);
        assert_eq!(c.per_layer[0].better, Better::Higher);
        assert_eq!(c.per_layer[0].bound, None);
        assert!(Catalogue::parse("{}").is_err());

        // A traced run reports every listed layer, 0 where it has nothing,
        // and refuses a name the catalogue does not list.
        let mut values = LayerValues::default();
        assert_eq!(
            values.into_metrics(&c).unwrap(),
            [(c.per_layer[0].clone(), Summary::single(0.0))]
        );
        values = LayerValues::default();
        values.set("cache_hit", 3.0);
        assert!(values.into_metrics(&c).is_err());
    }

    #[test]
    fn the_repositorys_benchmark_json_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let c = Catalogue::parse(&text).unwrap();
        assert_eq!(c.workloads.len(), 4);
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some()));
    }
}
