//! Replayable service repro files (`service-repro.json`).
//!
//! A service failure is fully determined by its [`ServiceSpec`] — the
//! engine configuration, the workload schedule and the dispatch
//! parallelism — so the repro file is just the spec plus where it was
//! drawn. Replaying re-runs the spec, re-judges the ledger with the service
//! oracle suite and compares the report with the spec's reference twin
//! (`jobs = 1`), so a captured jobs divergence replays as a failure too.

use crate::config::{ServiceConfig, ServiceError};
use crate::driver::{ServiceReport, ServiceSpec};
use crate::oracle::{judge_ledger, ServiceViolation};
use opr_adversary::AdversarySpec;
use opr_exec::MAX_JOBS;
use opr_obs::Json;
use opr_transport::BackendKind;
use opr_types::{Regime, SystemConfig};
use opr_workload::ServiceWorkload;
use std::fmt;

/// Format version written into every file (bump on breaking changes).
/// Version 2 dropped the `backend` key.
pub(crate) const SERVICE_REPRO_VERSION: u64 = 2;

/// A replayable service failure record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceRepro {
    /// The spec that showed the failure.
    pub spec: ServiceSpec,
    /// The campaign seed the spec was drawn under (0 for hand-written
    /// files).
    pub campaign_seed: u64,
    /// The index of the failing spec within that campaign.
    pub run_index: usize,
}

/// What replaying a [`ServiceRepro`] showed. The replay shows a failure
/// when `violations` is non-empty or `diverged` is set (or when the spec
/// fails to run at all, which [`ServiceRepro::replay`] returns as `Err`).
#[derive(Clone, Debug)]
pub struct ServiceReplay {
    /// The replayed spec's report.
    pub report: ServiceReport,
    /// Ledger-oracle violations of `report`, tagged with their oracle.
    pub violations: Vec<(&'static str, ServiceViolation)>,
    /// Whether `report` differs from the same spec run at `jobs = 1`.
    pub diverged: bool,
}

/// Why a service repro file could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceReproError(String);

impl fmt::Display for ServiceReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "service repro file: {}", self.0)
    }
}

impl std::error::Error for ServiceReproError {}

fn bad(msg: impl Into<String>) -> ServiceReproError {
    ServiceReproError(msg.into())
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, ServiceReproError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field '{key}'")))
}

fn field_usize(doc: &Json, key: &str) -> Result<usize, ServiceReproError> {
    doc.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| bad(format!("missing or non-integer field '{key}'")))
}

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ServiceReproError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing or non-string field '{key}'")))
}

impl ServiceRepro {
    /// Renders the repro as pretty-printed JSON (the `service-repro.json`
    /// payload).
    pub fn to_json(&self) -> String {
        let s = &self.spec.service;
        let w = &self.spec.workload;
        Json::Obj(vec![
            ("version".into(), Json::UInt(SERVICE_REPRO_VERSION)),
            ("campaign_seed".into(), Json::UInt(self.campaign_seed)),
            ("run_index".into(), Json::UInt(self.run_index as u64)),
            ("jobs".into(), Json::UInt(self.spec.jobs as u64)),
            (
                "service".into(),
                Json::Obj(vec![
                    ("shards".into(), Json::UInt(s.shards as u64)),
                    ("n".into(), Json::UInt(s.epoch_cfg.n() as u64)),
                    ("t".into(), Json::UInt(s.epoch_cfg.t() as u64)),
                    ("regime".into(), Json::Str(s.regime.label().into())),
                    ("byzantine".into(), Json::UInt(s.byzantine as u64)),
                    ("adversary".into(), Json::Str(s.adversary.label().into())),
                    ("queue_capacity".into(), Json::UInt(s.queue_capacity as u64)),
                    ("shard_span".into(), Json::UInt(s.shard_span)),
                    ("seed".into(), Json::UInt(s.seed)),
                ]),
            ),
            (
                "workload".into(),
                Json::Obj(vec![
                    ("clients".into(), Json::UInt(w.clients)),
                    ("epochs".into(), Json::UInt(w.epochs)),
                    (
                        "arrivals_per_epoch".into(),
                        Json::UInt(w.arrivals_per_epoch as u64),
                    ),
                    ("max_hold".into(), Json::UInt(w.max_hold)),
                    ("seed".into(), Json::UInt(w.seed)),
                ]),
            ),
        ])
        .render()
    }

    /// Decodes a repro file.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceReproError`] on malformed JSON, an unknown version,
    /// unknown labels, a spec [`ServiceConfig::validate`] rejects, or a
    /// `jobs` above [`opr_exec::MAX_JOBS`] — a file no run can be built
    /// from as it is written is refused here, not replayed.
    pub fn from_json(text: &str) -> Result<ServiceRepro, ServiceReproError> {
        let doc = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let version = field_u64(&doc, "version")?;
        if version != SERVICE_REPRO_VERSION {
            return Err(bad(format!(
                "unsupported version {version} (this build reads {SERVICE_REPRO_VERSION})"
            )));
        }
        let s = doc.get("service").ok_or_else(|| bad("missing service"))?;
        let w = doc.get("workload").ok_or_else(|| bad("missing workload"))?;
        let epoch_cfg = SystemConfig::new(field_usize(s, "n")?, field_usize(s, "t")?)
            .map_err(|e| bad(e.to_string()))?;
        let service = ServiceConfig {
            shards: field_usize(s, "shards")?,
            epoch_cfg,
            regime: Regime::parse(field_str(s, "regime")?)
                .ok_or_else(|| bad("unknown regime label"))?,
            byzantine: field_usize(s, "byzantine")?,
            adversary: AdversarySpec::parse(field_str(s, "adversary")?)
                .ok_or_else(|| bad("unknown adversary label"))?,
            backend: BackendKind::Sim,
            queue_capacity: field_usize(s, "queue_capacity")?,
            shard_span: field_u64(s, "shard_span")?,
            seed: field_u64(s, "seed")?,
        };
        service.validate().map_err(|e| bad(e.to_string()))?;
        // A repro replays the worker count it names, so one the pool would
        // clamp is refused rather than silently replayed at another.
        let jobs = field_usize(&doc, "jobs")?;
        if jobs > MAX_JOBS {
            return Err(bad(format!(
                "jobs {jobs} exceeds the maximum of {MAX_JOBS}"
            )));
        }
        let workload = ServiceWorkload {
            clients: field_u64(w, "clients")?,
            epochs: field_u64(w, "epochs")?,
            arrivals_per_epoch: field_usize(w, "arrivals_per_epoch")?,
            max_hold: field_u64(w, "max_hold")?,
            seed: field_u64(w, "seed")?,
        };
        Ok(ServiceRepro {
            spec: ServiceSpec {
                service,
                workload,
                jobs,
            },
            campaign_seed: field_u64(&doc, "campaign_seed")?,
            run_index: field_u64(&doc, "run_index")? as usize,
        })
    }

    /// Re-runs the spec, re-judges the ledger with the service oracle suite
    /// and compares the report with the spec's reference twin.
    /// Deterministic: the same file always yields the same replay.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when the spec or its twin fails to run.
    pub fn replay(&self) -> Result<ServiceReplay, ServiceError> {
        let report = self.spec.run()?;
        let violations = judge_ledger(&self.spec.service, &report.ledger);
        let diverged = self.diverges_from_twin(&report)?;
        Ok(ServiceReplay {
            report,
            violations,
            diverged,
        })
    }

    /// The spec's reference twin: the same spec at `jobs = 1`, whose
    /// report every other worker count must reproduce bit for bit.
    fn twin(&self) -> ServiceSpec {
        ServiceSpec {
            jobs: 1,
            ..self.spec
        }
    }

    /// Whether `report` differs from the twin's report. A spec that is its
    /// own twin is not run twice and never diverges.
    fn diverges_from_twin(&self, report: &ServiceReport) -> Result<bool, ServiceError> {
        let twin = self.twin();
        Ok(twin != self.spec && twin.run()? != *report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceRepro {
        ServiceRepro {
            spec: ServiceSpec {
                service: ServiceConfig {
                    shards: 2,
                    epoch_cfg: SystemConfig::new(7, 2).unwrap(),
                    regime: Regime::LogTime,
                    byzantine: 1,
                    adversary: AdversarySpec::RankSkew,
                    backend: BackendKind::Sim,
                    queue_capacity: 32,
                    shard_span: 16,
                    seed: 99,
                },
                workload: ServiceWorkload {
                    clients: 40,
                    epochs: 6,
                    arrivals_per_epoch: 5,
                    max_hold: 2,
                    seed: 7,
                },
                jobs: 4,
            },
            campaign_seed: 11,
            run_index: 3,
        }
    }

    #[test]
    fn repro_round_trips_through_json() {
        let repro = sample();
        let text = repro.to_json();
        assert_eq!(ServiceRepro::from_json(&text).unwrap(), repro, "{text}");
    }

    #[test]
    fn replay_is_deterministic_and_clean_on_a_healthy_spec() {
        let repro = sample();
        let first = repro.replay().unwrap();
        let second = repro.replay().unwrap();
        assert_eq!(first.report, second.report);
        assert!(first.violations.is_empty(), "{:?}", first.violations);
        assert!(!first.diverged, "jobs 4 must match its jobs 1 twin");
        assert!(first.report.grants > 0);
    }

    #[test]
    fn replay_flags_a_report_that_differs_from_the_serial_twin() {
        let repro = sample();
        let mut tampered = repro.spec.run().unwrap();
        assert!(!repro.diverges_from_twin(&tampered).unwrap());
        tampered.recycled += 1;
        assert!(repro.diverges_from_twin(&tampered).unwrap());
        // The reference spec is its own twin: nothing to compare against.
        let reference = ServiceRepro {
            spec: repro.twin(),
            ..repro
        };
        assert!(!reference.diverges_from_twin(&tampered).unwrap());
    }

    #[test]
    fn bad_files_are_rejected_with_reasons() {
        for (text, needle) in [
            ("{", "json error"),
            (r#"{"version": 99}"#, "version"),
            (
                r#"{"version": 2, "campaign_seed": 0, "run_index": 0, "jobs": 1,
                   "service": {"shards": 1, "n": 7, "t": 2, "regime": "sideways",
                               "byzantine": 0, "adversary": "silent",
                               "queue_capacity": 8, "shard_span": 16, "seed": 0},
                   "workload": {"clients": 10, "epochs": 2, "arrivals_per_epoch": 3,
                                "max_hold": 1, "seed": 0}}"#,
                "regime",
            ),
        ] {
            let err = ServiceRepro::from_json(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        // A well-formed spec the engine could never run (no shards) is
        // refused at load time with the configuration error as the reason.
        let text = sample().to_json();
        let zero = text.replace(r#""shards": 2"#, r#""shards": 0"#);
        assert_ne!(zero, text);
        let err = ServiceRepro::from_json(&zero).unwrap_err();
        assert!(err.to_string().contains("at least one shard"), "{err}");
        // A version-1 file (which named a backend) is refused by version.
        let text = sample().to_json();
        assert!(!text.contains("backend"), "{text}");
        let v1 = text.replace(r#""version": 2"#, r#""version": 1"#);
        assert_ne!(v1, text);
        let err = ServiceRepro::from_json(&v1).unwrap_err();
        assert!(err.to_string().contains("unsupported version 1"), "{err}");
        // A worker count the pool would clamp is refused by the loader,
        // before any pool exists.
        let text = sample().to_json();
        let huge = text.replace(r#""jobs": 4"#, r#""jobs": 1000000"#);
        assert_ne!(huge, text);
        let err = ServiceRepro::from_json(&huge).unwrap_err();
        assert!(err.to_string().contains("jobs 1000000 exceeds"), "{err}");
    }
}
