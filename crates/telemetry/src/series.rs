//! Deterministic gauge time series.
//!
//! The health-plane sampler records point-in-time measurements (queue
//! depths, link utilizations, cache ratios) at fixed virtual-time cadence.
//! The recorder keeps them as runs of equal values over one shared sample
//! clock; a [`GaugeSeries`] is the owned copy of one gauge's points that
//! [`Recorder::snapshot`](crate::Recorder::snapshot) returns, every
//! `(timestamp, value)` pair spelled out. Virtual time is monotone, so no
//! sorting or interpolation is ever needed, and integer values keep the
//! export byte-stable across runs and hosts.

use crate::TimeNs;

/// An append-only time series of integer gauge samples.
///
/// Values are signed so ratio-style gauges (permille deltas, headroom) can
/// go negative; everything derived from them stays integer fixed-point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaugeSeries {
    points: Vec<(TimeNs, i64)>,
}

impl GaugeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        GaugeSeries::default()
    }

    /// A series holding `points`, in the order given.
    pub(crate) fn from_points(points: Vec<(TimeNs, i64)>) -> Self {
        GaugeSeries { points }
    }

    /// Appends one sample. Timestamps are expected to be non-decreasing
    /// (the sampler runs on the virtual clock); this is not enforced so
    /// replayed or merged series stay cheap.
    pub fn push(&mut self, ts_ns: TimeNs, value: i64) {
        self.points.push((ts_ns, value));
    }

    /// All samples in record order.
    pub fn points(&self) -> &[(TimeNs, i64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<(TimeNs, i64)> {
        self.points.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_appends_in_order() {
        let mut s = GaugeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        s.push(500, 10);
        s.push(1000, -3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points(), &[(500, 10), (1000, -3)]);
        assert_eq!(s.last(), Some((1000, -3)));
    }
}
