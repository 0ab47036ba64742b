//! The in-process oracle every served answer is checked against.
//!
//! The oracle builds the same references in process (no HTTP, no name
//! resolution), folds the same ingest batches in the same order,
//! prepares from scratch and answers each read with
//! `PreparedCrosswalk::apply_batch`. Served values and weights must
//! equal the oracle's bit for bit. A cold `AppState` fed every point at
//! once checks the last served answer byte for byte.

use crate::gen::{self, Column, Triple};
use crate::plan::Plan;
use geoalign_agg::AggState;
use geoalign_core::{CrosswalkEstimate, IntegrationPipeline, PreparedCrosswalk, ReferenceData};
use geoalign_partition::{AggregateVector, DisaggregationMatrix};
use geoalign_serve::json::{self, Json};
use geoalign_serve::AppState;
use std::sync::Arc;

/// An `AppState` holding the plan's systems and static references,
/// registered programmatically.
pub fn registered_state(plan: &Plan) -> Arc<AppState> {
    let state = AppState::new(8);
    register(&state, plan);
    state
}

/// Registers the plan's systems and static references in `state`
/// directly on its pipeline (no HTTP, no unit-name resolution).
pub fn register(state: &AppState, plan: &Plan) {
    {
        let mut pipeline = state.pipeline_mut();
        let u = &plan.universe;
        pipeline.register_system(gen::SOURCE, u.zips.iter().cloned());
        pipeline.register_system(gen::TARGET, u.counties.iter().cloned());
        for k in 0..u.refs.len() {
            pipeline
                .register_reference(gen::SOURCE, gen::TARGET, u.reference_data(k))
                .expect("generated reference registers");
        }
    }
}

/// Folds `points` into `state`'s stream exactly as `/ingest` would.
pub fn ingest(state: &AppState, points: &[Triple]) -> Result<(), String> {
    state
        .ingest(gen::SOURCE, gen::TARGET, gen::STREAM_ATTR, points, 0)
        .map(drop)
        .map_err(|e| format!("in-process ingest failed: {e}"))
}

/// The stream's rollup built from `points` in one pass.
pub fn absorb(points: &[Triple]) -> Result<AggState, String> {
    let mut state = AggState::new(gen::STREAM_ATTR, gen::N_SOURCE, gen::N_TARGET)
        .map_err(|e| format!("agg state: {e}"))?;
    for &(si, ti, w) in points {
        state
            .absorb(si, ti, w)
            .map_err(|e| format!("absorb: {e}"))?;
    }
    Ok(state)
}

/// The reference answer at one stream version: the static references
/// plus (ingest workloads) the streaming reference built from the rollup
/// of every batch so far, prepared from scratch, so the served
/// incremental path is checked against a full prepare at every version.
pub struct Oracle {
    statics: Vec<ReferenceData>,
    stream: Option<AggState>,
    prepared: PreparedCrosswalk,
}

impl Oracle {
    /// The oracle before any plan batch: statics plus the warm-up batch.
    pub fn new(plan: &Plan) -> Result<Oracle, String> {
        let statics: Vec<ReferenceData> = (0..plan.universe.refs.len())
            .map(|k| plan.universe.reference_data(k))
            .collect();
        let stream = if plan.warm_points.is_empty() {
            None
        } else {
            Some(absorb(&plan.warm_points)?)
        };
        let prepared = prepare(&statics, stream.as_ref())?;
        Ok(Oracle {
            statics,
            stream,
            prepared,
        })
    }

    /// Folds one more batch into the stream and prepares again.
    pub fn ingest(&mut self, points: &[Triple]) -> Result<(), String> {
        let stream = self.stream.as_mut().ok_or("no stream to ingest into")?;
        stream
            .merge(&absorb(points)?)
            .map_err(|e| format!("merge: {e}"))?;
        self.prepared = prepare(&self.statics, self.stream.as_ref())?;
        Ok(())
    }

    /// The answer for `columns`.
    pub fn expected(&self, columns: &[Column]) -> Result<Vec<CrosswalkEstimate>, String> {
        let vectors: Vec<AggregateVector> = columns
            .iter()
            .map(|(name, values)| AggregateVector::new(name.as_str(), values.clone()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad read column: {e}"))?;
        self.prepared
            .apply_batch(&vectors)
            .map_err(|e| format!("in-process apply failed: {e}"))
    }
}

fn prepare(
    statics: &[ReferenceData],
    stream: Option<&AggState>,
) -> Result<PreparedCrosswalk, String> {
    let streamed = stream
        .map(|state| {
            let dm =
                DisaggregationMatrix::from_state(state).map_err(|e| format!("from_state: {e}"))?;
            ReferenceData::from_dm(gen::STREAM_ATTR, dm).map_err(|e| format!("reference: {e}"))
        })
        .transpose()?;
    let refs: Vec<&ReferenceData> = statics.iter().chain(streamed.as_ref()).collect();
    // The aligner a fresh server pipeline uses.
    let aligner = *IntegrationPipeline::new().aligner();
    aligner
        .prepare(&refs)
        .map_err(|e| format!("in-process prepare failed: {e}"))
}

/// Checks one served `/crosswalk` body against the oracle's estimates:
/// target units in registration order, and every value and weight equal
/// in its bits.
pub fn check_reply(
    plan: &Plan,
    columns: &[Column],
    want: &[CrosswalkEstimate],
    body: &[u8],
) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_owned())?;
    let doc = json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    let units = doc
        .get("target_units")
        .and_then(Json::as_array)
        .ok_or("reply has no target_units")?;
    let counties = &plan.universe.counties;
    if units.len() != counties.len()
        || units
            .iter()
            .zip(counties)
            .any(|(u, c)| u.as_str() != Some(c))
    {
        return Err("target_units differ from the registered county system".into());
    }
    let got = doc
        .get("columns")
        .and_then(Json::as_array)
        .ok_or("reply has no columns")?;
    if got.len() != want.len() {
        return Err(format!("{} columns, expected {}", got.len(), want.len()));
    }
    for ((column, want), (name, _)) in got.iter().zip(want).zip(columns) {
        if column.get("name").and_then(Json::as_str) != Some(name) {
            return Err(format!("column {name} missing or out of order"));
        }
        for (field, expected) in [("values", &want.estimate), ("weights", &want.weights)] {
            let served = column
                .get(field)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("column {name} has no {field}"))?;
            let same = served.len() == expected.len()
                && served
                    .iter()
                    .zip(expected.iter())
                    .all(|(s, e)| s.as_f64().map(f64::to_bits) == Some(e.to_bits()));
            if !same {
                return Err(format!("column {name}: {field} differ from the oracle"));
            }
        }
    }
    Ok(())
}
