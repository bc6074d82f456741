//! # ljqo-cli — file format and plumbing for the `ljqo-opt` binary
//!
//! The CLI reads a query description from JSON, optimizes it with one of
//! the paper's nine methods under a chosen cost model, and prints the
//! plan (text or JSON). The input format is deliberately small:
//!
//! ```json
//! {
//!   "relations": [
//!     { "name": "orders", "cardinality": 1500000 },
//!     { "name": "customers", "cardinality": 150000, "selections": [0.2] }
//!   ],
//!   "joins": [
//!     { "left": "orders", "right": "customers", "selectivity": 0.0000066 },
//!     { "left": "orders", "right": "customers",
//!       "distinct_left": 150000, "distinct_right": 150000 }
//!   ]
//! }
//! ```
//!
//! A join must carry either an explicit `selectivity` or distinct counts
//! (from which the uniformity assumption `J = 1/max(D_l, D_r)` derives
//! one).

#![warn(missing_docs)]
#![warn(clippy::all)]

use ljqo_catalog::{CatalogError, JoinEdge, Query, QueryBuilder};
use ljqo_json::Value;

/// A relation in the input file.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSpec {
    /// Relation name; joins refer to it.
    pub name: String,
    /// Base cardinality.
    pub cardinality: u64,
    /// Selectivities of pushed-down selections (optional).
    pub selections: Vec<f64>,
}

/// A join predicate in the input file.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Name of one side.
    pub left: String,
    /// Name of the other side.
    pub right: String,
    /// Explicit join selectivity (overrides distinct counts).
    pub selectivity: Option<f64>,
    /// Distinct values in the left join column.
    pub distinct_left: Option<f64>,
    /// Distinct values in the right join column.
    pub distinct_right: Option<f64>,
}

/// The top-level query file.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFile {
    /// Relations, in id order.
    pub relations: Vec<RelationSpec>,
    /// Join predicates.
    pub joins: Vec<JoinSpec>,
}

/// Errors turning JSON text into a [`Query`].
#[derive(Debug)]
pub enum FileError {
    /// The input is not well-formed JSON, or a field has the wrong shape.
    Json(String),
    /// A join referenced an unknown relation name.
    UnknownRelation(String),
    /// A join carried neither a selectivity nor distinct counts.
    UnderspecifiedJoin(String, String),
    /// Catalog-level validation failed.
    Catalog(CatalogError),
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::Json(msg) => write!(f, "invalid query JSON: {msg}"),
            FileError::UnknownRelation(name) => write!(f, "unknown relation {name:?}"),
            FileError::UnderspecifiedJoin(l, r) => write!(
                f,
                "join {l}-{r} needs either a selectivity or distinct counts"
            ),
            FileError::Catalog(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FileError {}

fn bad(msg: impl Into<String>) -> FileError {
    FileError::Json(msg.into())
}

/// A number field, accepted only if it is a JSON number (not a string or
/// null) — malformed statistics must fail parsing, not turn into NaN.
/// `item #i` names the array element in the error, formatted only when
/// one is reported.
fn number_field(v: &Value, key: &str, item: &str, i: usize) -> Result<Option<f64>, FileError> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad(format!("{item} #{i}: field {key:?} must be a number"))),
    }
}

fn string_field(v: &Value, key: &str, item: &str, i: usize) -> Result<String, FileError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("{item} #{i}: missing string field {key:?}")))
}

impl QueryFile {
    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<Self, FileError> {
        let root = ljqo_json::parse(text).map_err(|e| bad(e.to_string()))?;
        Self::from_value(&root)
    }

    /// Read from an already parsed JSON document (the server decodes the
    /// `query` member of a request this way, without re-parsing it).
    pub fn from_value(root: &Value) -> Result<Self, FileError> {
        let relations = root
            .get("relations")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("top level needs a \"relations\" array"))?;
        let joins = root
            .get("joins")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("top level needs a \"joins\" array"))?;

        let relations = relations
            .iter()
            .enumerate()
            .map(|(i, rel)| {
                let name = string_field(rel, "name", "relation", i)?;
                let cardinality =
                    rel.get("cardinality")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| {
                            bad(format!(
                                "relation #{i}: \"cardinality\" must be a non-negative integer"
                            ))
                        })?;
                let selections = match rel.get("selections") {
                    None => Vec::new(),
                    Some(s) => s
                        .as_array()
                        .ok_or_else(|| {
                            bad(format!("relation #{i}: \"selections\" must be an array"))
                        })?
                        .iter()
                        .map(|sel| {
                            sel.as_f64().ok_or_else(|| {
                                bad(format!("relation #{i}: selections must be numbers"))
                            })
                        })
                        .collect::<Result<Vec<f64>, FileError>>()?,
                };
                Ok(RelationSpec {
                    name,
                    cardinality,
                    selections,
                })
            })
            .collect::<Result<Vec<_>, FileError>>()?;

        let joins = joins
            .iter()
            .enumerate()
            .map(|(i, join)| {
                Ok(JoinSpec {
                    left: string_field(join, "left", "join", i)?,
                    right: string_field(join, "right", "join", i)?,
                    selectivity: number_field(join, "selectivity", "join", i)?,
                    distinct_left: number_field(join, "distinct_left", "join", i)?,
                    distinct_right: number_field(join, "distinct_right", "join", i)?,
                })
            })
            .collect::<Result<Vec<_>, FileError>>()?;

        Ok(QueryFile { relations, joins })
    }

    /// Serialize a live [`Query`] into the file format, preserving every
    /// statistic exactly: relations keep their base cardinality and
    /// selection selectivities, and joins carry *both* the selectivity
    /// and the distinct counts so [`into_query`](QueryFile::into_query)
    /// reconstructs bit-identical catalog statistics. This is what lets
    /// the serving protocol ship generated workloads over the wire
    /// without perturbing costs.
    pub fn from_query(query: &Query) -> Self {
        let relations = query
            .relations()
            .iter()
            .map(|r| RelationSpec {
                name: r.name.clone(),
                cardinality: r.base_cardinality,
                selections: r.selections.iter().map(|s| s.selectivity).collect(),
            })
            .collect();
        let joins = query
            .graph()
            .edges()
            .iter()
            .map(|e| JoinSpec {
                left: query.relation(e.a).name.clone(),
                right: query.relation(e.b).name.clone(),
                selectivity: Some(e.selectivity),
                distinct_left: Some(e.distinct_a),
                distinct_right: Some(e.distinct_b),
            })
            .collect();
        QueryFile { relations, joins }
    }

    /// Render back to JSON (used by tests and tooling round-trips).
    pub fn to_json(&self) -> Value {
        let relations: Vec<Value> = self
            .relations
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("name".to_string(), Value::from(r.name.as_str())),
                    ("cardinality".to_string(), Value::from(r.cardinality)),
                ];
                if !r.selections.is_empty() {
                    fields.push(("selections".to_string(), Value::from(r.selections.clone())));
                }
                Value::Object(fields)
            })
            .collect();
        let joins: Vec<Value> = self
            .joins
            .iter()
            .map(|j| {
                let mut fields = vec![
                    ("left".to_string(), Value::from(j.left.as_str())),
                    ("right".to_string(), Value::from(j.right.as_str())),
                ];
                for (key, v) in [
                    ("selectivity", j.selectivity),
                    ("distinct_left", j.distinct_left),
                    ("distinct_right", j.distinct_right),
                ] {
                    if let Some(v) = v {
                        fields.push((key.to_string(), Value::from(v)));
                    }
                }
                Value::Object(fields)
            })
            .collect();
        ljqo_json::json!({ "relations": relations, "joins": joins })
    }

    /// Convert into a validated [`Query`].
    pub fn into_query(self) -> Result<Query, FileError> {
        let mut builder = QueryBuilder::new();
        let mut names = Vec::with_capacity(self.relations.len());
        for rel in &self.relations {
            names.push(rel.name.clone());
            builder = builder.relation(&rel.name, rel.cardinality);
            // Selections are attached via repeated with_selection through
            // the builder's dedicated method.
            for &sel in &rel.selections {
                // Re-adding the relation would duplicate it; instead rebuild
                // via relation_with_selection is not chainable for multiple
                // selections, so we push onto the last relation directly.
                builder = builder.add_selection_to_last(sel);
            }
        }
        let check = |name: &String| -> Result<(), FileError> {
            if names.contains(name) {
                Ok(())
            } else {
                Err(FileError::UnknownRelation(name.clone()))
            }
        };
        let id_of = |name: &String| names.iter().position(|n| n == name).unwrap();
        for join in &self.joins {
            check(&join.left)?;
            check(&join.right)?;
            builder = match (join.selectivity, join.distinct_left, join.distinct_right) {
                // Fully specified: construct the edge exactly as given,
                // so a file produced by `from_query` round-trips
                // bit-for-bit (the convenience constructors below derive
                // one statistic from the other).
                (Some(s), Some(dl), Some(dr)) => builder.join_ids(JoinEdge::new(
                    id_of(&join.left),
                    id_of(&join.right),
                    s,
                    dl,
                    dr,
                )),
                (Some(s), _, _) => builder.join(&join.left, &join.right, s),
                (None, Some(dl), Some(dr)) => {
                    builder.join_on_distincts(&join.left, &join.right, dl, dr)
                }
                _ => {
                    return Err(FileError::UnderspecifiedJoin(
                        join.left.clone(),
                        join.right.clone(),
                    ))
                }
            };
        }
        builder.build().map_err(FileError::Catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "relations": [
            { "name": "a", "cardinality": 1000, "selections": [0.5, 0.2] },
            { "name": "b", "cardinality": 200 },
            { "name": "c", "cardinality": 50 }
        ],
        "joins": [
            { "left": "a", "right": "b", "selectivity": 0.01 },
            { "left": "b", "right": "c", "distinct_left": 40, "distinct_right": 25 }
        ]
    }"#;

    #[test]
    fn parse_and_convert() {
        let file = QueryFile::from_json(SAMPLE).unwrap();
        let query = file.into_query().unwrap();
        assert_eq!(query.n_relations(), 3);
        assert_eq!(query.n_joins(), 2);
        // Selections applied: 1000·0.5·0.2 = 100.
        assert_eq!(query.cardinality(ljqo_catalog::RelId(0)), 100.0);
        // Second join derives selectivity from distincts: 1/40.
        let e = &query.graph().edges()[1];
        assert!((e.selectivity - 1.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_relation_is_reported() {
        let mut file = QueryFile::from_json(SAMPLE).unwrap();
        file.joins[0].right = "zzz".into();
        assert!(matches!(
            file.into_query(),
            Err(FileError::UnknownRelation(n)) if n == "zzz"
        ));
    }

    #[test]
    fn underspecified_join_is_reported() {
        let mut file = QueryFile::from_json(SAMPLE).unwrap();
        file.joins[0].selectivity = None;
        assert!(matches!(
            file.into_query(),
            Err(FileError::UnderspecifiedJoin(..))
        ));
    }

    #[test]
    fn from_query_roundtrips_statistics_exactly() {
        use ljqo_workload::{generate_job_query, JobShape, JobSpec};
        for shape in JobShape::ALL {
            for seed in 0..4 {
                let q = generate_job_query(&JobSpec::new(shape), 10, seed);
                let text = QueryFile::from_query(&q).to_json().to_string_compact();
                let back = QueryFile::from_json(&text).unwrap().into_query().unwrap();
                assert_eq!(back, q, "{shape:?} seed {seed}");
            }
        }
    }

    #[test]
    fn from_value_decodes_like_from_json() {
        use ljqo_workload::{generate_job_query, JobShape, JobSpec};
        for shape in JobShape::ALL {
            for seed in 0..6 {
                let q = generate_job_query(&JobSpec::new(shape), 20, seed);
                let text = QueryFile::from_query(&q).to_json().to_string_compact();
                let doc = ljqo_json::parse(&text).unwrap();
                let via_value = QueryFile::from_value(&doc).unwrap();
                let via_text = QueryFile::from_json(&text).unwrap();
                // Reading a parsed member in place must agree with
                // re-serializing it and parsing the text again.
                let via_reparse = QueryFile::from_json(&doc.to_string_compact()).unwrap();
                assert_eq!(via_value, via_text, "{shape:?} seed {seed}");
                assert_eq!(via_value, via_reparse, "{shape:?} seed {seed}");
                let a = via_value.into_query().unwrap();
                let b = via_text.into_query().unwrap();
                // `{:?}` prints each f64 in its shortest round-trip form,
                // so equal renderings mean bit-identical statistics.
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{shape:?} seed {seed}");
                assert_eq!(format!("{a:?}"), format!("{q:?}"), "{shape:?} seed {seed}");
            }
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let file = QueryFile::from_json(SAMPLE).unwrap();
        let json = file.to_json().to_string_compact();
        let again = QueryFile::from_json(&json).unwrap();
        assert_eq!(
            again.into_query().unwrap(),
            QueryFile::from_json(SAMPLE).unwrap().into_query().unwrap()
        );
    }
}
