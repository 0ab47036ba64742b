//! Automatic aggregate-table integration — the paper's future-work
//! direction (§6): "an automatic aggregate data integration system that
//! joins multiple aggregate tables without user intervention".
//!
//! An [`IntegrationPipeline`] registers unit systems (by name, with their
//! string unit identifiers) and reference crosswalks between pairs of
//! systems. Given aggregate tables reported on *different* systems, it
//! realigns every table to a chosen target system with GeoAlign — using
//! all registered references for the relevant system pair — and emits one
//! joined table, keyed by the target system's unit identifiers. No shape
//! files, no user intervention beyond pointing at the data.

use crate::align::GeoAlign;
use crate::error::CoreError;
use crate::reference::ReferenceData;
use crate::store::fingerprint_references;
use geoalign_partition::{AggregateTable, AggregateVector, UnitIndex};
use std::collections::HashMap;

/// A registered unit system: a name and its unit identifiers.
#[derive(Debug, Clone)]
struct SystemEntry {
    index: UnitIndex,
}

/// The references registered for one `(source, target)` pair, with the
/// pair's reference-set fingerprint memoized: it is recomputed only when
/// the list changes, so a cache lookup never re-walks the references.
#[derive(Debug, Default)]
struct PairReferences {
    refs: Vec<ReferenceData>,
    /// [`fingerprint_references`] of `refs`.
    fingerprint: u64,
}

impl PairReferences {
    fn refresh_fingerprint(&mut self) {
        let refs: Vec<&ReferenceData> = self.refs.iter().collect();
        self.fingerprint = fingerprint_references(&refs);
    }
}

/// A table realigned (or passed through) to the target system, with its
/// provenance.
#[derive(Debug, Clone)]
pub struct AlignedColumn {
    /// Attribute name.
    pub attribute: String,
    /// System the data was originally reported on.
    pub reported_on: String,
    /// Values per target unit.
    pub values: Vec<f64>,
    /// Learned reference weights, when a crosswalk was needed.
    pub weights: Option<Vec<f64>>,
}

/// The joined result: one row per target unit, one column per input table.
#[derive(Debug, Clone)]
pub struct JoinedTable {
    /// Target system name.
    pub system: String,
    /// Target unit identifiers, in system order.
    pub unit_ids: Vec<String>,
    /// The aligned columns, in input order.
    pub columns: Vec<AlignedColumn>,
}

impl JoinedTable {
    /// Renders the join as CSV (`unit` + one column per attribute), with
    /// RFC 4180 quoting: fields containing commas, quotes, or line breaks
    /// are wrapped in double quotes and embedded quotes are doubled.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("unit");
        for c in &self.columns {
            out.push(',');
            push_csv_field(&mut out, &c.attribute);
        }
        out.push('\n');
        for (j, id) in self.unit_ids.iter().enumerate() {
            push_csv_field(&mut out, id);
            for c in &self.columns {
                let _ = write!(out, ",{}", c.values[j]);
            }
            out.push('\n');
        }
        out
    }
}

/// Appends `field` to `out`, quoting per RFC 4180 when needed.
fn push_csv_field(out: &mut String, field: &str) {
    if field.contains(['"', ',', '\n', '\r']) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// The automatic integration pipeline. See the module docs.
#[derive(Debug, Default)]
pub struct IntegrationPipeline {
    systems: HashMap<String, SystemEntry>,
    /// References keyed by `(source system, target system)`.
    references: HashMap<(String, String), PairReferences>,
    aligner: GeoAlign,
}

impl IntegrationPipeline {
    /// An empty pipeline with the default GeoAlign configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses a custom-configured aligner.
    pub fn with_aligner(aligner: GeoAlign) -> Self {
        Self {
            aligner,
            ..Self::default()
        }
    }

    /// Registers a unit system under `name` with its unit identifiers.
    /// Re-registering a name replaces the previous identifiers.
    pub fn register_system<I, S>(&mut self, name: impl Into<String>, unit_ids: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.systems.insert(
            name.into(),
            SystemEntry {
                index: UnitIndex::from_ids(unit_ids),
            },
        );
    }

    /// Registers a reference crosswalk from `source` to `target` system.
    /// The reference's dimensions must match the registered systems.
    pub fn register_reference(
        &mut self,
        source: &str,
        target: &str,
        reference: ReferenceData,
    ) -> Result<(), CoreError> {
        self.check_dimensions(source, target, &reference)?;
        let pair = self
            .references
            .entry((source.to_owned(), target.to_owned()))
            .or_default();
        pair.refs.push(reference);
        pair.refresh_fingerprint();
        Ok(())
    }

    /// Replaces the reference at `position` for the `(source, target)`
    /// pair — the streaming-ingest upsert: a live aggregate state folds a
    /// new batch in, re-finalizes, and swaps its reference in place while
    /// every other registration keeps its position (and hence its design-
    /// matrix column). Dimensions are validated like
    /// [`IntegrationPipeline::register_reference`].
    pub fn replace_reference(
        &mut self,
        source: &str,
        target: &str,
        position: usize,
        reference: ReferenceData,
    ) -> Result<(), CoreError> {
        self.check_dimensions(source, target, &reference)?;
        let key = (source.to_owned(), target.to_owned());
        let pair = self
            .references
            .get_mut(&key)
            .filter(|pair| position < pair.refs.len())
            .ok_or_else(|| CoreError::UnknownReference {
                name: format!("{source} -> {target} reference #{position}"),
            })?;
        pair.refs[position] = reference;
        pair.refresh_fingerprint();
        Ok(())
    }

    /// Checks that `reference` spans the registered `source` and `target`
    /// systems.
    fn check_dimensions(
        &self,
        source: &str,
        target: &str,
        reference: &ReferenceData,
    ) -> Result<(), CoreError> {
        let s = self.system(source)?;
        let t = self.system(target)?;
        if reference.n_source() != s.index.len() {
            return Err(CoreError::SourceMismatch {
                objective: s.index.len(),
                reference: reference.n_source(),
                name: reference.name().to_owned(),
            });
        }
        if reference.n_target() != t.index.len() {
            return Err(CoreError::TargetMismatch {
                left: t.index.len(),
                right: reference.n_target(),
                name: reference.name().to_owned(),
            });
        }
        Ok(())
    }

    /// The registered unit identifiers of `system`.
    pub fn unit_ids(&self, system: &str) -> Result<&[String], CoreError> {
        Ok(self.system(system)?.index.ids())
    }

    /// The id → index map of `system`: resolves a unit name in O(1) to
    /// the same index a scan of [`IntegrationPipeline::unit_ids`] finds
    /// (duplicate ids collapse to their first occurrence).
    pub fn unit_index(&self, system: &str) -> Result<&UnitIndex, CoreError> {
        Ok(&self.system(system)?.index)
    }

    /// Number of references registered for the `(source, target)` pair.
    pub fn reference_count(&self, source: &str, target: &str) -> usize {
        self.references(source, target).len()
    }

    /// The references registered for the `(source, target)` pair, in
    /// registration order; empty when the pair has no crosswalk.
    pub fn references(&self, source: &str, target: &str) -> &[ReferenceData] {
        self.pair(source, target)
            .map_or(&[], |pair| pair.refs.as_slice())
    }

    /// [`fingerprint_references`] of the `(source, target)` pair's
    /// current references, memoized at registration: an O(1) read that
    /// keys the prepared-crosswalk cache. `None` when the pair has no
    /// crosswalk.
    pub fn fingerprint(&self, source: &str, target: &str) -> Option<u64> {
        self.pair(source, target).map(|pair| pair.fingerprint)
    }

    fn pair(&self, source: &str, target: &str) -> Option<&PairReferences> {
        self.references.get(&(source.to_owned(), target.to_owned()))
    }

    /// Whether a unit system is registered under `name`.
    pub fn has_system(&self, name: &str) -> bool {
        self.systems.contains_key(name)
    }

    /// Names of all registered unit systems, sorted.
    pub fn system_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.systems.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The aligner the pipeline realigns with.
    pub fn aligner(&self) -> &GeoAlign {
        &self.aligner
    }

    fn system(&self, name: &str) -> Result<&SystemEntry, CoreError> {
        self.systems
            .get(name)
            .ok_or_else(|| CoreError::UnknownReference {
                name: format!("unit system '{name}'"),
            })
    }

    /// Joins aggregate tables reported on (possibly different) registered
    /// systems into one table on `target_system`. Tables already reported
    /// on the target pass through; others are realigned with GeoAlign
    /// using every reference registered for their system pair.
    pub fn join(
        &self,
        tables: &[(&str, &AggregateTable)],
        target_system: &str,
    ) -> Result<JoinedTable, CoreError> {
        self.join_with(tables, target_system, geoalign_exec::Executor::global())
    }

    /// [`IntegrationPipeline::join`] on an explicit executor. Each table
    /// realigns independently (one task per table); columns come back in
    /// input order and the first failing table (in input order) decides
    /// the error, exactly like the sequential loop.
    pub fn join_with(
        &self,
        tables: &[(&str, &AggregateTable)],
        target_system: &str,
        exec: geoalign_exec::Executor,
    ) -> Result<JoinedTable, CoreError> {
        let target = self.system(target_system)?;
        let per_table = exec.map_indexed(tables.len(), |i| {
            let (system_name, table) = tables[i];
            self.align_column(system_name, table, target_system)
        })?;
        let mut columns = Vec::with_capacity(tables.len());
        for column in per_table {
            columns.push(column?);
        }
        Ok(JoinedTable {
            system: target_system.to_owned(),
            unit_ids: target.index.ids().to_vec(),
            columns,
        })
    }

    /// Realigns (or passes through) one table to the target system — the
    /// per-table body of [`IntegrationPipeline::join`].
    fn align_column(
        &self,
        system_name: &str,
        table: &AggregateTable,
        target_system: &str,
    ) -> Result<AlignedColumn, CoreError> {
        let entry = self.system(system_name)?;
        let vector: AggregateVector = table
            .to_vector(&entry.index)
            .map_err(CoreError::Partition)?;
        if system_name == target_system {
            return Ok(AlignedColumn {
                attribute: table.attribute.clone(),
                reported_on: system_name.to_owned(),
                values: vector.into_values(),
                weights: None,
            });
        }
        let pair =
            self.pair(system_name, target_system)
                .ok_or_else(|| CoreError::UnknownReference {
                    name: format!("crosswalk {system_name} -> {target_system}"),
                })?;
        let ref_slices: Vec<&ReferenceData> = pair.refs.iter().collect();
        let result = self.aligner.estimate(&vector, &ref_slices)?;
        Ok(AlignedColumn {
            attribute: table.attribute.clone(),
            reported_on: system_name.to_owned(),
            values: result.estimate,
            weights: Some(result.weights),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoalign_partition::DisaggregationMatrix;

    /// Builds a 3-zip / 2-county world with a population crosswalk.
    fn pipeline() -> IntegrationPipeline {
        let mut p = IntegrationPipeline::new();
        p.register_system("zip", ["z1", "z2", "z3"]);
        p.register_system("county", ["A", "B"]);
        let dm = DisaggregationMatrix::from_triples(
            "population",
            3,
            2,
            [
                (0, 0, 100.0), // z1 wholly in A
                (1, 0, 60.0),
                (1, 1, 40.0), // z2 straddles
                (2, 1, 80.0), // z3 wholly in B
            ],
        )
        .unwrap();
        let population = ReferenceData::from_dm("population", dm).unwrap();
        p.register_reference("zip", "county", population).unwrap();
        p
    }

    fn table(csv: &str) -> AggregateTable {
        AggregateTable::parse_csv(csv).unwrap()
    }

    #[test]
    fn joins_mixed_system_tables() {
        let p = pipeline();
        let steam = table("zip,steam\nz1,10\nz2,20\nz3,30\n");
        let income = table("county,income\nA,50000\nB,60000\n");
        let joined = p
            .join(&[("zip", &steam), ("county", &income)], "county")
            .unwrap();
        assert_eq!(joined.unit_ids, vec!["A".to_owned(), "B".to_owned()]);
        assert_eq!(joined.columns.len(), 2);
        // Steam realigned: A gets 10 + 20*0.6 = 22; B gets 20*0.4 + 30 = 38.
        let steam_col = &joined.columns[0];
        assert!((steam_col.values[0] - 22.0).abs() < 1e-9);
        assert!((steam_col.values[1] - 38.0).abs() < 1e-9);
        assert!(steam_col.weights.is_some());
        // Income passed through untouched.
        let income_col = &joined.columns[1];
        assert_eq!(income_col.values, vec![50_000.0, 60_000.0]);
        assert!(income_col.weights.is_none());
        // CSV render includes everything.
        let csv = joined.to_csv();
        assert!(csv.contains("unit,steam,income"));
        assert!(csv.lines().count() == 3);
    }

    #[test]
    fn to_csv_quotes_per_rfc_4180() {
        let joined = JoinedTable {
            system: "county".to_owned(),
            unit_ids: vec![
                "plain".to_owned(),
                "has,comma".to_owned(),
                "has \"quote\"".to_owned(),
                "has\nnewline".to_owned(),
            ],
            columns: vec![AlignedColumn {
                attribute: "crimes, total".to_owned(),
                reported_on: "zip".to_owned(),
                values: vec![1.0, 2.0, 3.0, 4.0],
                weights: None,
            }],
        };
        let csv = joined.to_csv();
        let mut lines = csv.split('\n');
        assert_eq!(lines.next(), Some("unit,\"crimes, total\""));
        assert_eq!(lines.next(), Some("plain,1"));
        assert_eq!(lines.next(), Some("\"has,comma\",2"));
        assert_eq!(lines.next(), Some("\"has \"\"quote\"\"\",3"));
        // The embedded newline stays inside one quoted field.
        assert_eq!(lines.next(), Some("\"has"));
        assert_eq!(lines.next(), Some("newline\",4"));
    }

    #[test]
    fn reference_accessors() {
        let p = pipeline();
        assert!(p.has_system("zip"));
        assert!(!p.has_system("tract"));
        assert_eq!(p.system_names(), vec!["county", "zip"]);
        let refs = p.references("zip", "county");
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].name(), "population");
        assert!(p.references("county", "zip").is_empty());
    }

    #[test]
    fn missing_crosswalk_is_reported() {
        let p = pipeline();
        let t = table("county,x\nA,1\nB,2\n");
        // county -> zip was never registered.
        let err = p.join(&[("county", &t)], "zip").unwrap_err();
        assert!(err.to_string().contains("county -> zip"), "{err}");
    }

    #[test]
    fn unknown_system_is_reported() {
        let p = pipeline();
        let t = table("tract,x\nt1,1\n");
        assert!(p.join(&[("tract", &t)], "county").is_err());
        assert!(p.unit_ids("tract").is_err());
        assert_eq!(p.unit_ids("zip").unwrap().len(), 3);
    }

    #[test]
    fn reference_dimension_validation() {
        let mut p = pipeline();
        let bad = ReferenceData::from_dm(
            "bad",
            DisaggregationMatrix::from_triples("bad", 2, 2, [(0, 0, 1.0)]).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            p.register_reference("zip", "county", bad),
            Err(CoreError::SourceMismatch { .. })
        ));
        assert_eq!(p.reference_count("zip", "county"), 1);
        assert_eq!(p.reference_count("county", "zip"), 0);
    }

    #[test]
    fn multiple_references_are_combined() {
        let mut p = pipeline();
        // A second, differently-shaped reference.
        let dm2 = DisaggregationMatrix::from_triples(
            "accidents",
            3,
            2,
            [(0, 0, 5.0), (1, 0, 1.0), (1, 1, 9.0), (2, 1, 4.0)],
        )
        .unwrap();
        p.register_reference(
            "zip",
            "county",
            ReferenceData::from_dm("accidents", dm2).unwrap(),
        )
        .unwrap();
        assert_eq!(p.reference_count("zip", "county"), 2);
        let steam = table("zip,steam\nz1,10\nz2,20\nz3,30\n");
        let joined = p.join(&[("zip", &steam)], "county").unwrap();
        let w = joined.columns[0].weights.as_ref().unwrap();
        assert_eq!(w.len(), 2);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mass conserved regardless of the mixture.
        let total: f64 = joined.columns[0].values.iter().sum();
        assert!((total - 60.0).abs() < 1e-9);
    }

    #[test]
    fn replace_reference_swaps_in_place() {
        let mut p = pipeline();
        let dm2 = DisaggregationMatrix::from_triples(
            "accidents",
            3,
            2,
            [(0, 0, 5.0), (1, 1, 9.0), (2, 1, 4.0)],
        )
        .unwrap();
        p.register_reference(
            "zip",
            "county",
            ReferenceData::from_dm("accidents", dm2).unwrap(),
        )
        .unwrap();
        // Replace position 0; position 1 must keep its place.
        let dm3 =
            DisaggregationMatrix::from_triples("population", 3, 2, [(0, 0, 7.0), (2, 1, 3.0)])
                .unwrap();
        p.replace_reference(
            "zip",
            "county",
            0,
            ReferenceData::from_dm("population", dm3).unwrap(),
        )
        .unwrap();
        let refs = p.references("zip", "county");
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].source().values()[0], 7.0);
        assert_eq!(refs[1].name(), "accidents");
        // Out-of-range position and bad dimensions are rejected.
        let dm4 = DisaggregationMatrix::from_triples("x", 3, 2, [(0, 0, 1.0)]).unwrap();
        let ok = ReferenceData::from_dm("x", dm4).unwrap();
        assert!(p.replace_reference("zip", "county", 9, ok).is_err());
        let dm5 = DisaggregationMatrix::from_triples("x", 2, 2, [(0, 0, 1.0)]).unwrap();
        let bad = ReferenceData::from_dm("x", dm5).unwrap();
        assert!(matches!(
            p.replace_reference("zip", "county", 0, bad),
            Err(CoreError::SourceMismatch { .. })
        ));
    }

    #[test]
    fn tables_with_partial_unit_coverage() {
        let p = pipeline();
        // z2 missing from the table: treated as zero.
        let steam = table("zip,steam\nz1,10\nz3,30\n");
        let joined = p.join(&[("zip", &steam)], "county").unwrap();
        assert!((joined.columns[0].values[0] - 10.0).abs() < 1e-9);
        assert!((joined.columns[0].values[1] - 30.0).abs() < 1e-9);
    }
}
