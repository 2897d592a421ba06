//! LabStack specification files (paper §III-B, §III-D).
//!
//! "LabStacks are defined in a specification file which includes: a) a
//! mount point …; b) a set of governing rules, such as priority hints and
//! execution method; and c) a DAG of LabMods, where each vertex contains
//! the LabMod name, LabMod UUID, attributes for initialization, and a set
//! of outputs."
//!
//! The paper uses YAML; this reproduction uses JSON through serde (see
//! DESIGN.md §5) — same schema, same human-readable intent:
//!
//! ```json
//! {
//!   "mount": "fs::/b",
//!   "exec": "async",
//!   "authorized_uids": [0, 1000],
//!   "labmods": [
//!     { "uuid": "perm1", "type": "permissions", "outputs": ["labfs1"] },
//!     { "uuid": "labfs1", "type": "labfs",
//!       "params": {"workers": 4}, "outputs": ["lru1"] },
//!     { "uuid": "lru1",  "type": "lru_cache", "outputs": ["drv1"] },
//!     { "uuid": "drv1",  "type": "kernel_driver" }
//!   ]
//! }
//! ```

use std::collections::HashMap;

use serde_json::{Error as JsonError, FromValue, Map, ToValue, Value};

use crate::stack::{ExecMode, LabStack, Vertex};

/// One vertex of the spec DAG.
#[derive(Debug, Clone)]
pub struct VertexSpec {
    /// Human-readable instance UUID ("a unique instance of a LabMod").
    pub uuid: String,
    /// LabMod type name (resolved against installed factories; the JSON
    /// field is `type`).
    pub type_name: String,
    /// Initialization attributes, passed to the factory. Defaults to
    /// `null` when absent.
    pub params: serde_json::Value,
    /// UUIDs of downstream vertices. Defaults to empty when absent.
    pub outputs: Vec<String>,
}

/// A LabStack specification file.
#[derive(Debug, Clone)]
pub struct StackSpec {
    /// Mount point.
    pub mount: String,
    /// Execution method: "async" (Runtime workers) or "sync" (client
    /// inline). Defaults to async.
    pub exec: String,
    /// Users allowed to modify the stack. Defaults to empty when absent.
    pub authorized_uids: Vec<u32>,
    /// The DAG; the first entry is the stack's entry vertex.
    pub labmods: Vec<VertexSpec>,
}

fn default_exec() -> String {
    "async".to_string()
}

// Hand-written JSON conversions (the offline serde_json shim has no
// derive machinery; see shims/serde_json). Field names and defaulting
// match the previous serde attributes: `type_name` maps to "type", and
// `exec` / `params` / `outputs` / `authorized_uids` are optional.

fn field<'v>(v: &'v Value, ctx: &str, key: &str) -> Result<&'v Value, JsonError> {
    v.get(key)
        .ok_or_else(|| JsonError(format!("{ctx}: missing field `{key}`")))
}

fn string_field(v: &Value, ctx: &str, key: &str) -> Result<String, JsonError> {
    field(v, ctx, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| JsonError(format!("{ctx}: field `{key}` must be a string")))
}

impl FromValue for VertexSpec {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError("labmod entry must be an object".into()));
        }
        let uuid = string_field(v, "labmod", "uuid")?;
        let ctx = format!("labmod '{uuid}'");
        let type_name = string_field(v, &ctx, "type")?;
        let params = v.get("params").cloned().unwrap_or(Value::Null);
        let outputs = match v.get("outputs") {
            None => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .map(|o| {
                    o.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| JsonError(format!("{ctx}: outputs must be strings")))
                })
                .collect::<Result<Vec<String>, JsonError>>()?,
            Some(_) => return Err(JsonError(format!("{ctx}: `outputs` must be an array"))),
        };
        Ok(VertexSpec {
            uuid,
            type_name,
            params,
            outputs,
        })
    }
}

impl ToValue for VertexSpec {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("uuid".into(), Value::from(self.uuid.clone()));
        m.insert("type".into(), Value::from(self.type_name.clone()));
        m.insert("params".into(), self.params.clone());
        m.insert("outputs".into(), Value::from(self.outputs.clone()));
        Value::Object(m)
    }
}

impl FromValue for StackSpec {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError("stack spec must be an object".into()));
        }
        let mount = string_field(v, "spec", "mount")?;
        let exec = match v.get("exec") {
            None => default_exec(),
            Some(e) => e
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| JsonError("spec: `exec` must be a string".into()))?,
        };
        let authorized_uids = match v.get("authorized_uids") {
            None => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .map(|u| {
                    u.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| JsonError("spec: uids must be u32".into()))
                })
                .collect::<Result<Vec<u32>, JsonError>>()?,
            Some(_) => return Err(JsonError("spec: `authorized_uids` must be an array".into())),
        };
        let labmods = match field(v, "spec", "labmods")? {
            Value::Array(items) => items
                .iter()
                .map(VertexSpec::from_value)
                .collect::<Result<Vec<VertexSpec>, JsonError>>()?,
            _ => return Err(JsonError("spec: `labmods` must be an array".into())),
        };
        Ok(StackSpec {
            mount,
            exec,
            authorized_uids,
            labmods,
        })
    }
}

impl ToValue for StackSpec {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("mount".into(), Value::from(self.mount.clone()));
        m.insert("exec".into(), Value::from(self.exec.clone()));
        m.insert(
            "authorized_uids".into(),
            Value::from(self.authorized_uids.clone()),
        );
        m.insert(
            "labmods".into(),
            Value::Array(self.labmods.iter().map(ToValue::to_value).collect()),
        );
        Value::Object(m)
    }
}

impl StackSpec {
    /// Parse a spec from its JSON text.
    pub fn parse(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad stack spec: {e}"))
    }

    /// Serialize back to pretty JSON (specs round-trip so `modify_stack`
    /// can diff files).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Execution mode.
    pub(crate) fn exec_mode(&self) -> Result<ExecMode, String> {
        match self.exec.as_str() {
            "async" => Ok(ExecMode::Async),
            "sync" => Ok(ExecMode::Sync),
            other => Err(format!(
                "unknown exec mode '{other}' (use \"async\" or \"sync\")"
            )),
        }
    }

    /// Lower the spec into a [`LabStack`] (unmounted: id 0). Checks UUID
    /// uniqueness and that outputs reference declared vertices; DAG
    /// validity (acyclicity) is checked again at mount.
    pub fn to_stack(&self) -> Result<LabStack, String> {
        if self.labmods.is_empty() {
            return Err("spec declares no labmods".into());
        }
        let mut index: HashMap<&str, usize> = HashMap::new();
        for (i, v) in self.labmods.iter().enumerate() {
            if index.insert(v.uuid.as_str(), i).is_some() {
                return Err(format!("duplicate uuid '{}'", v.uuid));
            }
        }
        let vertices = self
            .labmods
            .iter()
            .map(|v| {
                let outputs =
                    v.outputs
                        .iter()
                        .map(|o| {
                            index.get(o.as_str()).copied().ok_or_else(|| {
                                format!("vertex '{}' outputs to unknown '{o}'", v.uuid)
                            })
                        })
                        .collect::<Result<Vec<usize>, String>>()?;
                Ok(Vertex {
                    uuid: v.uuid.clone(),
                    outputs,
                })
            })
            .collect::<Result<Vec<Vertex>, String>>()?;
        let stack = LabStack {
            id: 0,
            mount: self.mount.clone(),
            exec: self.exec_mode()?,
            vertices,
            authorized_uids: self.authorized_uids.clone(),
        };
        stack.validate()?;
        Ok(stack)
    }

    /// Convenience: build a linear chain spec programmatically.
    pub fn chain(mount: &str, exec: ExecMode, mods: &[(&str, &str)]) -> StackSpec {
        StackSpec {
            mount: mount.to_string(),
            exec: match exec {
                ExecMode::Async => "async".into(),
                ExecMode::Sync => "sync".into(),
            },
            authorized_uids: vec![0],
            labmods: mods
                .iter()
                .enumerate()
                .map(|(i, (uuid, type_name))| VertexSpec {
                    uuid: uuid.to_string(),
                    type_name: type_name.to_string(),
                    params: serde_json::Value::Null,
                    outputs: if i + 1 < mods.len() {
                        vec![mods[i + 1].0.to_string()]
                    } else {
                        vec![]
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "mount": "fs::/b",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "perm1", "type": "permissions", "outputs": ["fs1"] },
            { "uuid": "fs1", "type": "labfs", "params": {"workers": 4}, "outputs": ["drv1"] },
            { "uuid": "drv1", "type": "kernel_driver" }
        ]
    }"#;

    #[test]
    fn parse_and_lower() {
        let spec = StackSpec::parse(SPEC).unwrap();
        let stack = spec.to_stack().unwrap();
        assert_eq!(stack.mount, "fs::/b");
        assert_eq!(stack.exec, ExecMode::Async);
        assert_eq!(stack.vertices.len(), 3);
        assert_eq!(stack.vertices[0].outputs, vec![1]);
        assert_eq!(stack.vertices[1].outputs, vec![2]);
        assert!(stack.vertices[2].outputs.is_empty());
    }

    #[test]
    fn roundtrip_json() {
        let spec = StackSpec::parse(SPEC).unwrap();
        let again = StackSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(again.labmods.len(), 3);
        assert_eq!(again.labmods[1].params["workers"], 4);
    }

    #[test]
    fn duplicate_uuid_rejected() {
        let mut spec = StackSpec::parse(SPEC).unwrap();
        spec.labmods[2].uuid = "perm1".into();
        assert!(spec.to_stack().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn unknown_output_rejected() {
        let mut spec = StackSpec::parse(SPEC).unwrap();
        spec.labmods[0].outputs = vec!["ghost".into()];
        assert!(spec.to_stack().unwrap_err().contains("unknown"));
    }

    #[test]
    fn bad_exec_mode_rejected() {
        let mut spec = StackSpec::parse(SPEC).unwrap();
        spec.exec = "warp".into();
        assert!(spec.to_stack().is_err());
    }

    #[test]
    fn cyclic_spec_rejected() {
        let mut spec = StackSpec::parse(SPEC).unwrap();
        spec.labmods[2].outputs = vec!["perm1".into()];
        assert!(spec.to_stack().is_err());
    }

    #[test]
    fn chain_builder() {
        let spec = StackSpec::chain(
            "kv::/a",
            ExecMode::Sync,
            &[("kvs1", "labkvs"), ("drv1", "spdk")],
        );
        let stack = spec.to_stack().unwrap();
        assert_eq!(stack.exec, ExecMode::Sync);
        assert_eq!(stack.vertices[0].outputs, vec![1]);
    }

    #[test]
    fn empty_spec_rejected() {
        let spec = StackSpec {
            mount: "x".into(),
            exec: "async".into(),
            authorized_uids: vec![],
            labmods: vec![],
        };
        assert!(spec.to_stack().is_err());
    }
}
