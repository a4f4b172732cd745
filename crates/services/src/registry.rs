//! The per-node service registry.
//!
//! "Every node registers its list of services with the key-value store using
//! a service name concatenated with service ID as key." The registry is the
//! node-local half: it owns the deployed [`Service`] implementations and
//! answers invocation and profiling queries; the distributed half (which
//! nodes provide which service) lives in the metadata layer's
//! `ServiceRecord`s.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::service::{Service, ServiceId};

/// The services deployed on one node.
///
/// # Examples
///
/// ```
/// use c4h_services::{ServiceRegistry, Transcode, TRANSCODE_ID};
///
/// let mut reg = ServiceRegistry::new();
/// reg.deploy(std::sync::Arc::new(Transcode::new()));
/// assert!(reg.provides(TRANSCODE_ID));
/// let out = reg.get(TRANSCODE_ID).unwrap().run(&[1, 2, 3, 4]);
/// assert!(!out.data.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceRegistry {
    services: BTreeMap<ServiceId, Arc<dyn Service>>,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ServiceRegistry::default()
    }

    /// Deploys a service, returning any previous deployment under the same
    /// id.
    pub fn deploy(&mut self, service: Arc<dyn Service>) -> Option<Arc<dyn Service>> {
        self.services.insert(service.id(), service)
    }

    /// Whether the node provides a service.
    pub fn provides(&self, id: ServiceId) -> bool {
        self.services.contains_key(&id)
    }

    /// Looks up a deployed service.
    pub fn get(&self, id: ServiceId) -> Option<&Arc<dyn Service>> {
        self.services.get(&id)
    }

    /// All deployed service ids, ascending.
    pub fn ids(&self) -> Vec<ServiceId> {
        self.services.keys().copied().collect()
    }

    /// Number of deployed services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether no services are deployed.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::COMPRESS_ID;
    use crate::transcode::{Transcode, TRANSCODE_ID};
    use crate::vision::{FaceDetect, FACE_DETECT_ID};

    #[test]
    fn deploy_lookup_undeploy() {
        let mut reg = ServiceRegistry::new();
        assert!(reg.is_empty());
        reg.deploy(Arc::new(FaceDetect::new()));
        reg.deploy(Arc::new(Transcode::new()));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.ids(), vec![FACE_DETECT_ID, TRANSCODE_ID]);
        assert!(reg.provides(FACE_DETECT_ID));
        assert!(reg.get(TRANSCODE_ID).is_some());
        // An id that is not deployed is neither provided nor found.
        assert!(!reg.provides(COMPRESS_ID));
        assert!(reg.get(COMPRESS_ID).is_none());
    }

    #[test]
    fn redeploy_replaces() {
        let mut reg = ServiceRegistry::new();
        assert!(reg.deploy(Arc::new(FaceDetect::new())).is_none());
        assert!(reg.deploy(Arc::new(FaceDetect::new())).is_some());
        assert_eq!(reg.len(), 1);
    }
}
