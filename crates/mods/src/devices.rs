//! The device registry: names → simulated devices.
//!
//! The real LabStor wires Driver LabMods to hardware via the Kernel Ops
//! Manager (`/dev/nvme0n1`, PCI BARs for SPDK, DAX character devices).
//! Here a [`DeviceRegistry`] plays that role: experiments register their
//! simulated devices under names, and Driver LabMod factories look the
//! names up from their `params` (e.g. `{"device": "nvme0"}`).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use labstor_kernel::BlockLayer;
use labstor_sim::{DeviceKind, PmemDevice, SimDevice};

/// Named handles to the machine's storage.
#[derive(Default)]
pub struct DeviceRegistry {
    blocks: RwLock<HashMap<String, Arc<SimDevice>>>,
    layers: RwLock<HashMap<String, Arc<BlockLayer>>>,
    pmems: RwLock<HashMap<String, Arc<PmemDevice>>>,
}

impl DeviceRegistry {
    /// Empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Register a block device under `name`. A kernel block layer is
    /// created for it as well (the Kernel Driver LabMod path needs one).
    pub fn add_block(&self, name: &str, dev: Arc<SimDevice>) {
        self.layers
            .write()
            .insert(name.to_string(), BlockLayer::new(dev.clone()));
        self.blocks.write().insert(name.to_string(), dev);
    }

    /// Register a PMEM device under `name`.
    pub fn add_pmem(&self, name: &str, dev: Arc<PmemDevice>) {
        self.pmems.write().insert(name.to_string(), dev);
    }

    /// Convenience: create and register a preset device.
    pub fn add_preset(&self, name: &str, kind: DeviceKind) -> Arc<SimDevice> {
        let dev = SimDevice::preset(kind);
        self.add_block(name, dev.clone());
        dev
    }

    /// Look up a block device.
    pub fn block(&self, name: &str) -> Option<Arc<SimDevice>> {
        self.blocks.read().get(name).cloned()
    }

    /// Look up the kernel block layer fronting a block device.
    pub(crate) fn layer(&self, name: &str) -> Option<Arc<BlockLayer>> {
        self.layers.read().get(name).cloned()
    }

    /// Look up a PMEM device.
    pub fn pmem(&self, name: &str) -> Option<Arc<PmemDevice>> {
        self.pmems.read().get(name).cloned()
    }
}

/// Read a device name out of factory params (key `"device"`, default
/// `"default"`).
pub(crate) fn device_param(params: &serde_json::Value) -> String {
    params
        .get("device")
        .and_then(|v| v.as_str())
        .unwrap_or("default")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let reg = DeviceRegistry::new();
        let dev = reg.add_preset("nvme0", DeviceKind::Nvme);
        assert!(Arc::ptr_eq(&reg.block("nvme0").unwrap(), &dev));
        assert!(reg.layer("nvme0").is_some());
        assert!(reg.block("ghost").is_none());
        reg.add_pmem("pmem0", PmemDevice::preset());
        assert!(reg.pmem("pmem0").is_some());
    }

    #[test]
    fn device_param_parses() {
        let p: serde_json::Value = serde_json::json!({"device": "ssd1"});
        assert_eq!(device_param(&p), "ssd1");
        assert_eq!(device_param(&serde_json::Value::Null), "default");
    }
}
