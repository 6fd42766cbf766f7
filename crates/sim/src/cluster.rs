//! Cluster lifecycle: the unit managed by the simulated Cluster Service.

/// State of a simulated Spark cluster while the pool manages it. A
/// cluster handed to a customer, discarded, cancelled, retired, expired or
/// donated leaves pool management and is dropped, so it has no state here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterState {
    /// VMs being allocated and stitched; ready at the stored time.
    Provisioning {
        /// Absolute second at which the cluster becomes ready.
        ready_at: u64,
    },
    /// Sitting in the live pool, ready for instant hand-off.
    Ready {
        /// Second it entered the pool (for idle accounting).
        since: u64,
    },
}

/// A simulated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Unique id.
    pub id: u64,
    /// Current lifecycle state.
    pub state: ClusterState,
    /// Absolute second at which this cluster fails/expires if still pooled
    /// (`u64::MAX` = never).
    pub expires_at: u64,
    /// Whether it was created as an on-demand response to a pool miss
    /// (rather than a re-hydration).
    pub on_demand: bool,
}

impl Cluster {
    /// Creates a cluster entering provisioning.
    pub fn provisioning(id: u64, ready_at: u64, expires_at: u64, on_demand: bool) -> Self {
        Self {
            id,
            state: ClusterState::Provisioning { ready_at },
            expires_at,
            on_demand,
        }
    }

    /// `true` while the cluster is being created.
    pub fn is_provisioning(&self) -> bool {
        matches!(self.state, ClusterState::Provisioning { .. })
    }

    /// `true` while pooled and ready.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, ClusterState::Ready { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_flags() {
        let mut c = Cluster::provisioning(1, 100, u64::MAX, false);
        assert!(c.is_provisioning());
        assert!(!c.is_ready());
        c.state = ClusterState::Ready { since: 100 };
        assert!(c.is_ready() && !c.is_provisioning());
    }
}
