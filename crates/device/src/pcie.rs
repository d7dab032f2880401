//! PCIe link model.
//!
//! Each accelerator hangs off a processor via PCIe (paper Fig. 2); the
//! performance model charges transfers at effective burst bandwidth
//! (Eq. 8) and the all-reduce at two crossings (Eq. 13).

use crate::calib;

/// A point-to-point PCIe link with effective bandwidth and fixed latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    /// Effective burst bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Per-transfer latency, seconds.
    pub latency_s: f64,
}

impl Default for PcieLink {
    fn default() -> Self {
        Self {
            bandwidth_gbs: calib::PCIE_EFF_BW_GBS,
            latency_s: calib::PCIE_LATENCY_S,
        }
    }
}

impl PcieLink {
    /// A link with explicit parameters.
    pub fn new(bandwidth_gbs: f64, latency_s: f64) -> Self {
        assert!(bandwidth_gbs > 0.0);
        Self {
            bandwidth_gbs,
            latency_s,
        }
    }

    /// Time to move `bytes` across the link (paper Eq. 8).
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }

    /// All-reduce time for a model of `bytes`: gather + broadcast crosses
    /// the link twice (paper Eq. 13).
    pub fn allreduce_time(&self, bytes: u64) -> f64 {
        2.0 * self.transfer_time(bytes)
    }
}

/// A scheduled transfer on a link: when it starts moving bytes and when
/// the last byte lands in the device-side staging buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferWindow {
    /// Time the link started serving this transfer, seconds.
    pub start_s: f64,
    /// Time the transfer completed, seconds.
    pub end_s: f64,
}

impl TransferWindow {
    /// Time the transfer occupied the link.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Occupancy model of one PCIe link: transfers queue behind whatever is
/// already in flight, so the wire time of batch `i+1` can hide behind
/// the accelerator compute of batch `i` only while the link is free.
///
/// It works with the modeled staging ring
/// ([`StagingModel`](crate::stage::StagingModel)): the ring bounds how
/// many batches may be in flight per accelerator; this model charges
/// each of those in-flight transfers for the link time it actually gets.
///
/// ```
/// use hyscale_device::pcie::{LinkOccupancy, PcieLink};
///
/// let mut link = LinkOccupancy::new(PcieLink::new(10.0, 0.0));
/// // batch 0 is ready at t=0 and moves 1 GB: occupies [0, 0.1]
/// let w0 = link.schedule(0.0, 1_000_000_000);
/// assert_eq!((w0.start_s, w0.end_s), (0.0, 0.1));
/// // batch 1 is ready at t=0.05 but the link is busy until 0.1
/// let w1 = link.schedule(0.05, 1_000_000_000);
/// assert_eq!(w1.start_s, 0.1);
/// assert_eq!(link.busy_until(), 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct LinkOccupancy {
    link: PcieLink,
    busy_until: f64,
}

impl LinkOccupancy {
    /// An idle link.
    pub fn new(link: PcieLink) -> Self {
        Self {
            link,
            busy_until: 0.0,
        }
    }

    /// The underlying link parameters.
    pub fn link(&self) -> &PcieLink {
        &self.link
    }

    /// Enqueue a transfer of `bytes` that becomes ready at `ready_s`:
    /// it starts as soon as both the data and the link are available and
    /// holds the link for [`PcieLink::transfer_time`].
    pub fn schedule(&mut self, ready_s: f64, bytes: u64) -> TransferWindow {
        let start_s = ready_s.max(self.busy_until);
        let end_s = start_s + self.link.transfer_time(bytes);
        self.busy_until = end_s;
        TransferWindow { start_s, end_s }
    }

    /// Time at which the link next becomes free.
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }

    /// Forget all in-flight transfers (e.g. a DRM `balance_work` drain
    /// discarding staged batches).
    pub fn reset(&mut self) {
        self.busy_until = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(PcieLink::default().transfer_time(0), 0.0);
    }

    #[test]
    fn occupancy_serializes_overlapping_transfers() {
        let mut occ = LinkOccupancy::new(PcieLink::new(10.0, 0.0));
        let w0 = occ.schedule(0.0, 500_000_000); // 0.05 s
        let w1 = occ.schedule(0.0, 500_000_000);
        assert_eq!(w0.end_s, w1.start_s, "second transfer queues behind");
        assert!((w1.duration_s() - 0.05).abs() < 1e-12);
        // a transfer ready after the link drained starts immediately
        let w2 = occ.schedule(1.0, 500_000_000);
        assert_eq!(w2.start_s, 1.0);
    }

    #[test]
    fn occupancy_reset_clears_in_flight() {
        let mut occ = LinkOccupancy::new(PcieLink::default());
        occ.schedule(0.0, 1_000_000_000);
        assert!(occ.busy_until() > 0.0);
        occ.reset();
        assert_eq!(occ.busy_until(), 0.0);
    }

    #[test]
    fn bandwidth_term_dominates_large_transfers() {
        let link = PcieLink::new(10.0, 1e-6);
        // 1 GB at 10 GB/s = 0.1 s
        let t = link.transfer_time(1_000_000_000);
        assert!((t - 0.1000010).abs() < 1e-6);
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let link = PcieLink::new(10.0, 1e-5);
        let t = link.transfer_time(100);
        assert!(t > 1e-5 && t < 2e-5);
    }

    #[test]
    fn allreduce_is_two_crossings() {
        let link = PcieLink::default();
        let b = 1_000_000;
        assert!((link.allreduce_time(b) - 2.0 * link.transfer_time(b)).abs() < 1e-12);
    }

    #[test]
    fn eq8_matches_paper_form() {
        // T_trans = |V0| * f0 * S_feat / BW_PCIe
        let link = PcieLink::new(12.0, 0.0);
        let v0 = 290_000u64;
        let f0 = 128u64;
        let bytes = v0 * f0 * 4;
        let expect = bytes as f64 / 12e9;
        assert!((link.transfer_time(bytes) - expect).abs() < 1e-9);
    }
}
