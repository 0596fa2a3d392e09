use std::collections::BTreeMap;
use std::fmt;

use crate::{HeartbeatError, HeartbeatMonitor, PerfTarget};

/// Identifier of a registered self-adaptive application.
///
/// Newtype over `u64` so application ids cannot be confused with
/// heartbeat indices or core ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u64);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// A registry of per-application heartbeat monitors, the multi-application
/// channel MP-HARS iterates over (the paper manages these as a linked
/// list; iteration order here is ascending registration id, which matches
/// the paper's head-to-tail walk).
///
/// ```
/// use heartbeats::{HeartbeatRegistry, PerfTarget};
/// let mut reg = HeartbeatRegistry::new(8);
/// let a = reg.register(Some(PerfTarget::new(1.0, 2.0)?));
/// let b = reg.register(None);
/// reg.emit(a, 0)?;
/// reg.emit(a, 500_000_000)?;
/// assert_eq!(reg.monitor(a)?.total_heartbeats(), 2);
/// assert_eq!(reg.monitor(b)?.total_heartbeats(), 0);
/// # Ok::<(), heartbeats::HeartbeatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HeartbeatRegistry {
    monitors: BTreeMap<AppId, HeartbeatMonitor>,
    window: usize,
    next_id: u64,
}

impl HeartbeatRegistry {
    /// Creates a registry whose monitors use rate windows of `window`
    /// heartbeats.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "rate window needs capacity >= 2");
        Self {
            monitors: BTreeMap::new(),
            window,
            next_id: 0,
        }
    }

    /// Registers a new application, optionally with a target band, and
    /// returns its id.
    pub fn register(&mut self, target: Option<PerfTarget>) -> AppId {
        let id = AppId(self.next_id);
        self.next_id += 1;
        let monitor = match target {
            Some(t) => HeartbeatMonitor::with_target(t, self.window),
            None => HeartbeatMonitor::new(self.window),
        };
        self.monitors.insert(id, monitor);
        id
    }

    /// Removes an application from the registry.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::UnknownApp`] if `id` is not registered.
    pub fn unregister(&mut self, id: AppId) -> Result<HeartbeatMonitor, HeartbeatError> {
        self.monitors
            .remove(&id)
            .ok_or(HeartbeatError::UnknownApp(id.0))
    }

    /// Emits a heartbeat for application `id`.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::UnknownApp`] if `id` is not registered.
    pub fn emit(&mut self, id: AppId, timestamp_ns: u64) -> Result<(), HeartbeatError> {
        self.monitor_mut(id)?.emit(timestamp_ns);
        Ok(())
    }

    /// Immutable access to one application's monitor.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::UnknownApp`] if `id` is not registered.
    pub fn monitor(&self, id: AppId) -> Result<&HeartbeatMonitor, HeartbeatError> {
        self.monitors
            .get(&id)
            .ok_or(HeartbeatError::UnknownApp(id.0))
    }

    /// Mutable access to one application's monitor.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::UnknownApp`] if `id` is not registered.
    pub fn monitor_mut(&mut self, id: AppId) -> Result<&mut HeartbeatMonitor, HeartbeatError> {
        self.monitors
            .get_mut(&id)
            .ok_or(HeartbeatError::UnknownApp(id.0))
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// `true` when no applications are registered.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Iterates over `(id, monitor)` pairs in registration order — the
    /// MP-HARS "iterate nodes" walk (Algorithm 3).
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &HeartbeatMonitor)> {
        self.monitors.iter().map(|(id, m)| (*id, m))
    }

    /// Registered application ids in registration order.
    pub fn app_ids(&self) -> Vec<AppId> {
        self.monitors.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_unique_ids() {
        let mut reg = HeartbeatRegistry::new(4);
        let a = reg.register(None);
        let b = reg.register(None);
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn emit_to_unknown_app_fails() {
        let mut reg = HeartbeatRegistry::new(4);
        let err = reg.emit(AppId(99), 0).unwrap_err();
        assert_eq!(err, HeartbeatError::UnknownApp(99));
    }

    #[test]
    fn unregister_removes_monitor() {
        let mut reg = HeartbeatRegistry::new(4);
        let a = reg.register(None);
        reg.emit(a, 0).unwrap();
        let monitor = reg.unregister(a).unwrap();
        assert_eq!(monitor.total_heartbeats(), 1);
        assert!(reg.monitor(a).is_err());
        assert!(reg.unregister(a).is_err());
    }

    #[test]
    fn iteration_is_registration_order() {
        let mut reg = HeartbeatRegistry::new(4);
        let ids: Vec<AppId> = (0..5).map(|_| reg.register(None)).collect();
        let walked: Vec<AppId> = reg.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, walked);
        assert_eq!(reg.app_ids(), ids);
    }

    #[test]
    fn per_app_targets_are_independent() {
        let mut reg = HeartbeatRegistry::new(4);
        let a = reg.register(Some(PerfTarget::new(1.0, 2.0).unwrap()));
        let b = reg.register(Some(PerfTarget::new(10.0, 20.0).unwrap()));
        let ta = *reg.monitor(a).unwrap().target().unwrap();
        let tb = *reg.monitor(b).unwrap().target().unwrap();
        assert!(ta.satisfied_by(1.5));
        assert!(!tb.satisfied_by(1.5));
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(3).to_string(), "app3");
    }
}
