//! Replayable repro files (`chaos-repro.json`).
//!
//! A repro file is self-contained: the campaign seed it came from, the
//! failing schedule in full, the backend choice and the verdict digest the
//! failure showed. Replaying re-executes the schedule deterministically and
//! re-judges it with the same oracle suite — the digest must reproduce.

use crate::engine::{judge_schedule, BackendChoice, RunVerdict};
use crate::fitness::{FitnessKind, FitnessRecord};
use crate::oracle::Oracle;
use crate::schedule::{BudgetRegime, ChaosSchedule};
use opr_adversary::AdversarySpec;
use opr_obs::json::Json;
use opr_sim::{RoundMetrics, RunMetrics};
use opr_transport::FaultEvent;
use opr_types::Regime;
use opr_workload::IdDistribution;
use std::fmt;

/// Format version written into every file (bump on breaking changes).
pub const REPRO_VERSION: u64 = 1;

/// A replayable failure record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repro {
    /// The campaign seed the failure was found under.
    pub campaign_seed: u64,
    /// The index of the failing run within that campaign.
    pub run_index: usize,
    /// The budget regime the run was judged under.
    pub budget: BudgetRegime,
    /// Which backend(s) showed the failure.
    pub backend: BackendChoice,
    /// The verdict digest at capture time (e.g. `"uniqueness"`, `"panic"`).
    pub digest: String,
    /// The (possibly shrunk) schedule.
    pub schedule: ChaosSchedule,
    /// Per-round network metrics of the reference run at capture time, when
    /// the capturing campaign executed the schedule (panicking runs have
    /// none). Purely informational on replay — the replayed run recomputes
    /// its own — but lets a repro file document how much traffic the
    /// failure took. Absent in files written by older builds.
    pub metrics: Option<RunMetrics>,
    /// The fitness the guided adversary search recorded for the schedule,
    /// when the file came from a search rather than a random campaign.
    /// Replay recomputes the score and must reproduce it — the regression
    /// contract of `tests/data/worst-*.json`. Absent in campaign repros and
    /// files written by older builds.
    pub fitness: Option<FitnessRecord>,
}

/// Why a repro file could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproError(String);

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "repro file: {}", self.0)
    }
}

impl std::error::Error for ReproError {}

fn bad(msg: impl Into<String>) -> ReproError {
    ReproError(msg.into())
}

impl Repro {
    /// Renders the repro as pretty-printed JSON (the `chaos-repro.json`
    /// payload).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("version".into(), Json::UInt(REPRO_VERSION)),
            ("campaign_seed".into(), Json::UInt(self.campaign_seed)),
            ("run_index".into(), Json::UInt(self.run_index as u64)),
            ("budget".into(), Json::Str(self.budget.label().into())),
            ("backend".into(), Json::Str(self.backend.label().into())),
            ("digest".into(), Json::Str(self.digest.clone())),
            ("schedule".into(), schedule_to_json(&self.schedule)),
        ];
        if let Some(metrics) = &self.metrics {
            fields.push(("metrics".into(), metrics_to_json(metrics)));
        }
        if let Some(fitness) = &self.fitness {
            fields.push((
                "fitness".into(),
                Json::Obj(vec![
                    ("kind".into(), Json::Str(fitness.kind.label().into())),
                    ("score".into(), Json::Int(fitness.score)),
                ]),
            ));
        }
        Json::Obj(fields).render()
    }

    /// Decodes a repro file.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError`] on malformed JSON, an unknown version, or
    /// unknown labels.
    pub fn from_json(text: &str) -> Result<Repro, ReproError> {
        let doc = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let version = field_u64(&doc, "version")?;
        if version != REPRO_VERSION {
            return Err(bad(format!(
                "unsupported version {version} (this build reads {REPRO_VERSION})"
            )));
        }
        Ok(Repro {
            campaign_seed: field_u64(&doc, "campaign_seed")?,
            run_index: field_u64(&doc, "run_index")? as usize,
            budget: BudgetRegime::parse(field_str(&doc, "budget")?)
                .ok_or_else(|| bad("unknown budget label"))?,
            backend: BackendChoice::parse(field_str(&doc, "backend")?)
                .ok_or_else(|| bad("unknown backend label"))?,
            digest: field_str(&doc, "digest")?.to_string(),
            schedule: schedule_from_json(
                doc.get("schedule").ok_or_else(|| bad("missing schedule"))?,
            )?,
            metrics: match doc.get("metrics") {
                None | Some(Json::Null) => None,
                Some(v) => Some(metrics_from_json(v)?),
            },
            fitness: match doc.get("fitness") {
                None | Some(Json::Null) => None,
                Some(v) => Some(FitnessRecord {
                    kind: FitnessKind::parse(field_str(v, "kind")?)
                        .ok_or_else(|| bad("unknown fitness kind"))?,
                    score: v
                        .get("score")
                        .and_then(Json::as_i64)
                        .ok_or_else(|| bad("missing or non-integer fitness score"))?,
                }),
            },
        })
    }

    /// Re-executes the schedule with the recorded backend choice and
    /// re-judges it. Deterministic: the same file always yields the same
    /// verdict, and a valid repro reproduces its recorded digest.
    pub fn replay(&self, oracles: &[Box<dyn Oracle>]) -> RunVerdict {
        judge_schedule(&self.schedule, self.backend, oracles)
    }
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, ReproError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field '{key}'")))
}

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ReproError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing or non-string field '{key}'")))
}

fn field_usize(doc: &Json, key: &str) -> Result<usize, ReproError> {
    doc.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| bad(format!("missing or non-integer field '{key}'")))
}

/// Encodes a schedule as a JSON object (used by the repro format and the
/// chaos binary's failure dumps).
pub fn schedule_to_json(schedule: &ChaosSchedule) -> Json {
    Json::Obj(vec![
        ("regime".into(), Json::Str(schedule.regime.label().into())),
        ("n".into(), Json::UInt(schedule.n as u64)),
        ("t".into(), Json::UInt(schedule.t as u64)),
        ("id_dist".into(), Json::Str(schedule.id_dist.label().into())),
        ("id_seed".into(), Json::UInt(schedule.id_seed)),
        (
            "adversary".into(),
            Json::Str(schedule.adversary.label().into()),
        ),
        ("byzantine".into(), Json::UInt(schedule.byzantine as u64)),
        ("run_seed".into(), Json::UInt(schedule.run_seed)),
        (
            "payload_cap".into(),
            match schedule.payload_cap {
                Some(cap) => Json::UInt(cap),
                None => Json::Null,
            },
        ),
        (
            "events".into(),
            Json::Arr(schedule.events.iter().map(event_to_json).collect()),
        ),
    ])
}

/// Decodes a schedule object.
///
/// # Errors
///
/// Returns [`ReproError`] on missing fields, unknown labels, or more
/// Byzantine processes than processes.
pub fn schedule_from_json(doc: &Json) -> Result<ChaosSchedule, ReproError> {
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing events array"))?
        .iter()
        .map(event_from_json)
        .collect::<Result<Vec<FaultEvent>, ReproError>>()?;
    let payload_cap = match doc.get("payload_cap") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| bad("non-integer payload_cap"))?),
    };
    let n = field_usize(doc, "n")?;
    let byzantine = field_usize(doc, "byzantine")?;
    if byzantine > n {
        return Err(bad(format!("byzantine exceeds n ({byzantine} > {n})")));
    }
    Ok(ChaosSchedule {
        regime: Regime::parse(field_str(doc, "regime")?)
            .ok_or_else(|| bad("unknown regime label"))?,
        n,
        t: field_usize(doc, "t")?,
        id_dist: IdDistribution::parse(field_str(doc, "id_dist")?)
            .ok_or_else(|| bad("unknown id_dist label"))?,
        id_seed: field_u64(doc, "id_seed")?,
        adversary: AdversarySpec::parse(field_str(doc, "adversary")?)
            .ok_or_else(|| bad("unknown adversary label"))?,
        byzantine,
        run_seed: field_u64(doc, "run_seed")?,
        events,
        payload_cap,
    })
}

/// Encodes run metrics as an array of per-round counter objects.
pub fn metrics_to_json(metrics: &RunMetrics) -> Json {
    Json::Arr(
        metrics
            .per_round()
            .iter()
            .map(|round| {
                Json::Obj(vec![
                    (
                        "messages_correct".into(),
                        Json::UInt(round.messages_correct),
                    ),
                    ("messages_faulty".into(), Json::UInt(round.messages_faulty)),
                    ("bits_correct".into(), Json::UInt(round.bits_correct)),
                    (
                        "max_message_bits".into(),
                        Json::UInt(round.max_message_bits),
                    ),
                ])
            })
            .collect(),
    )
}

/// Decodes a [`metrics_to_json`] array.
///
/// # Errors
///
/// Returns [`ReproError`] when the value is not an array of per-round
/// counter objects.
pub fn metrics_from_json(doc: &Json) -> Result<RunMetrics, ReproError> {
    let rounds = doc
        .as_array()
        .ok_or_else(|| bad("metrics is not an array"))?;
    let mut metrics = RunMetrics::new();
    for round in rounds {
        metrics.push_round(RoundMetrics {
            messages_correct: field_u64(round, "messages_correct")?,
            messages_faulty: field_u64(round, "messages_faulty")?,
            bits_correct: field_u64(round, "bits_correct")?,
            max_message_bits: field_u64(round, "max_message_bits")?,
        });
    }
    Ok(metrics)
}

fn event_to_json(event: &FaultEvent) -> Json {
    match *event {
        FaultEvent::Drop {
            sender,
            link,
            round,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("drop".into())),
            ("sender".into(), Json::UInt(sender as u64)),
            ("link".into(), Json::UInt(link as u64)),
            ("round".into(), Json::UInt(round as u64)),
        ]),
        FaultEvent::SilenceLink { sender, link, from } => Json::Obj(vec![
            ("kind".into(), Json::Str("silence-link".into())),
            ("sender".into(), Json::UInt(sender as u64)),
            ("link".into(), Json::UInt(link as u64)),
            ("from".into(), Json::UInt(from as u64)),
        ]),
        FaultEvent::Crash { sender, from } => Json::Obj(vec![
            ("kind".into(), Json::Str("crash".into())),
            ("sender".into(), Json::UInt(sender as u64)),
            ("from".into(), Json::UInt(from as u64)),
        ]),
    }
}

fn event_from_json(doc: &Json) -> Result<FaultEvent, ReproError> {
    let round_field = |key: &str| -> Result<u32, ReproError> {
        u32::try_from(field_u64(doc, key)?).map_err(|_| bad(format!("field '{key}' out of range")))
    };
    match field_str(doc, "kind")? {
        "drop" => Ok(FaultEvent::Drop {
            sender: field_usize(doc, "sender")?,
            link: field_usize(doc, "link")?,
            round: round_field("round")?,
        }),
        "silence-link" => Ok(FaultEvent::SilenceLink {
            sender: field_usize(doc, "sender")?,
            link: field_usize(doc, "link")?,
            from: round_field("from")?,
        }),
        "crash" => Ok(FaultEvent::Crash {
            sender: field_usize(doc, "sender")?,
            from: round_field("from")?,
        }),
        other => Err(bad(format!("unknown event kind '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_schedule;
    use crate::oracle::standard_suite;

    fn sample_repro(seed: u64) -> Repro {
        Repro {
            campaign_seed: seed,
            run_index: 17,
            budget: BudgetRegime::OverBudget,
            backend: BackendChoice::Both,
            digest: "missed-termination".into(),
            schedule: generate_schedule(seed, BudgetRegime::OverBudget),
            metrics: None,
            fitness: None,
        }
    }

    #[test]
    fn repro_round_trips_through_json() {
        for seed in [0u64, 9, u64::MAX] {
            let repro = sample_repro(seed);
            let text = repro.to_json();
            assert_eq!(Repro::from_json(&text).unwrap(), repro, "{text}");
        }
    }

    #[test]
    fn metrics_round_trip_and_stay_optional() {
        let mut metrics = RunMetrics::new();
        metrics.push_round(RoundMetrics {
            messages_correct: 42,
            messages_faulty: 6,
            bits_correct: 1344,
            max_message_bits: 64,
        });
        metrics.push_round(RoundMetrics::default());
        let repro = Repro {
            metrics: Some(metrics),
            ..sample_repro(3)
        };
        let text = repro.to_json();
        assert!(text.contains("\"messages_correct\": 42"), "{text}");
        let reread = Repro::from_json(&text).unwrap();
        assert_eq!(reread, repro);
        assert_eq!(reread.metrics.as_ref().unwrap().rounds_executed(), 2);
        // Files from builds that predate the field still parse.
        let without = sample_repro(3).to_json();
        assert_eq!(Repro::from_json(&without).unwrap().metrics, None);
    }

    #[test]
    fn fitness_round_trips_and_stays_optional() {
        // Negative scores (e.g. a namespace signal that never decided)
        // must survive the integer-only JSON dialect.
        for score in [i64::MIN, -7, 0, 42, i64::MAX] {
            let repro = Repro {
                fitness: Some(FitnessRecord {
                    kind: FitnessKind::Margin,
                    score,
                }),
                ..sample_repro(5)
            };
            let reread = Repro::from_json(&repro.to_json()).unwrap();
            assert_eq!(reread, repro);
        }
        let without = sample_repro(5).to_json();
        assert_eq!(Repro::from_json(&without).unwrap().fitness, None);
        // An unknown fitness kind is rejected, not silently dropped.
        let forged = sample_repro(5).to_json().replace(
            "\"digest\"",
            "\"fitness\": {\"kind\": \"luck\", \"score\": 1}, \"digest\"",
        );
        assert!(Repro::from_json(&forged).is_err());
    }

    #[test]
    fn schedules_with_every_event_kind_round_trip() {
        let mut schedule = generate_schedule(1, BudgetRegime::AtBudget);
        schedule.events = opr_transport::FaultPlan::new()
            .drop_message(0, opr_types::LinkId::new(2), opr_types::Round::new(3))
            .silence_link_from(1, opr_types::LinkId::new(1), opr_types::Round::new(2))
            .crash_from(2, opr_types::Round::new(1))
            .events();
        schedule.payload_cap = Some(1 << 20);
        let json = schedule_to_json(&schedule);
        assert_eq!(schedule_from_json(&json).unwrap(), schedule);
    }

    #[test]
    fn replay_is_deterministic() {
        let repro = Repro {
            digest: String::new(),
            ..sample_repro(23)
        };
        let oracles = standard_suite();
        let first = repro.replay(&oracles);
        let second = repro.replay(&oracles);
        assert_eq!(first.digest(), second.digest());
    }

    #[test]
    fn bad_files_are_rejected_with_reasons() {
        for (text, needle) in [
            ("{", "json error"),
            (r#"{"version": 99}"#, "version"),
            (
                r#"{"version": 1, "campaign_seed": 0, "run_index": 0,
                   "budget": "sideways", "backend": "sim", "digest": "x",
                   "schedule": {}}"#,
                "budget",
            ),
        ] {
            let err = Repro::from_json(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        // More Byzantine processes than processes is rejected at the file
        // boundary (replaying it would ask for `n - byzantine` correct ids).
        let mut hostile = sample_repro(23);
        hostile.schedule.byzantine = hostile.schedule.n + 1;
        let err = Repro::from_json(&hostile.to_json()).unwrap_err();
        assert!(err.to_string().contains("byzantine exceeds n"), "{err}");
        // An otherwise valid file carrying a retired backend label is a typed
        // error, not a panic or alias.
        let text = sample_repro(23).to_json();
        for label in ["threaded", "all", "auto"] {
            let stale = text.replace(r#""backend": "both""#, &format!(r#""backend": "{label}""#));
            assert_ne!(stale, text);
            let err = Repro::from_json(&stale).unwrap_err();
            assert!(err.to_string().contains("unknown backend label"), "{err}");
        }
    }
}
