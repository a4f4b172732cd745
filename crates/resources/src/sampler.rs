//! Synthetic per-node resource sampling (the glibtop stand-in).
//!
//! The prototype "added a custom resource monitoring utility to Chimera
//! using the Linux glibtop library". No real kernel counters exist inside
//! the simulation, so [`ResourceSampler`] synthesizes them: ambient CPU load
//! follows a mean-reverting AR(1) process, active service executions add
//! directly to the runnable load, memory tracks the active working sets, and
//! battery drains with load on portable devices. The outputs feed the
//! resource records (`c4h_kvstore::ResourceRecord`) that placement decisions
//! consume.

use std::time::Duration;

use c4h_simnet::{DetRng, SimTime};

/// Battery model for portable devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryConfig {
    /// Initial charge, percent.
    pub initial_pct: f64,
    /// Drain per hour at idle, percent.
    pub idle_drain_pct_per_hour: f64,
    /// Additional drain per hour per unit of CPU load, percent.
    pub load_drain_pct_per_hour: f64,
}

impl Default for BatteryConfig {
    fn default() -> Self {
        BatteryConfig {
            initial_pct: 90.0,
            idle_drain_pct_per_hour: 4.0,
            load_drain_pct_per_hour: 14.0,
        }
    }
}

/// Configuration of a node's synthetic resource behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Mean ambient CPU load the AR(1) process reverts to (per-core
    /// normalized, 0..=1).
    pub baseline_load: f64,
    /// Step volatility of the ambient load process.
    pub volatility: f64,
    /// Mean-reversion strength per step (0..=1).
    pub reversion: f64,
    /// Total memory visible to the sampler, MiB.
    pub mem_total_mib: u64,
    /// Ambient (OS + background) memory use, MiB.
    pub mem_baseline_mib: u64,
    /// Battery model; `None` for mains-powered machines.
    pub battery: Option<BatteryConfig>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            baseline_load: 0.12,
            volatility: 0.06,
            reversion: 0.3,
            mem_total_mib: 1024,
            mem_baseline_mib: 300,
            battery: None,
        }
    }
}

/// One resource sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Runnable load, per-core normalized.
    pub cpu_load: f64,
    /// Free memory, MiB.
    pub mem_free_mib: u64,
    /// Battery charge, percent (portable devices only).
    pub battery_pct: Option<f64>,
}

/// The per-node synthetic sampler.
///
/// # Examples
///
/// ```
/// use c4h_resources::{ResourceSampler, SamplerConfig};
/// use c4h_simnet::{DetRng, SimTime};
///
/// let mut s = ResourceSampler::new(SamplerConfig::default());
/// let mut rng = DetRng::seed(1);
/// let sample = s.sample(SimTime::from_secs(1), &mut rng);
/// assert!(sample.cpu_load >= 0.0 && sample.cpu_load <= 1.5);
/// assert!(sample.mem_free_mib <= 1024);
/// ```
#[derive(Debug, Clone)]
pub struct ResourceSampler {
    config: SamplerConfig,
    ambient_load: f64,
    active_tasks: u32,
    active_mem_mib: u64,
    battery_pct: Option<f64>,
    last_sample: Option<SimTime>,
}

impl ResourceSampler {
    /// Creates a sampler.
    pub fn new(config: SamplerConfig) -> Self {
        ResourceSampler {
            ambient_load: config.baseline_load,
            active_tasks: 0,
            active_mem_mib: 0,
            battery_pct: config.battery.map(|b| b.initial_pct),
            last_sample: None,
            config,
        }
    }

    /// The sampler configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Registers the start of a service execution with the given working
    /// set; each active task contributes one saturated core of load.
    pub fn task_started(&mut self, working_set_mib: u64) {
        self.active_tasks += 1;
        self.active_mem_mib += working_set_mib;
    }

    /// Registers the end of a service execution.
    ///
    /// # Panics
    ///
    /// Panics if no task is active (start/finish mismatch).
    pub fn task_finished(&mut self, working_set_mib: u64) {
        assert!(self.active_tasks > 0, "task_finished without task_started");
        self.active_tasks -= 1;
        self.active_mem_mib = self.active_mem_mib.saturating_sub(working_set_mib);
    }

    /// Number of service executions currently running here.
    pub fn active_tasks(&self) -> u32 {
        self.active_tasks
    }

    /// The current sample **without** advancing the ambient process,
    /// draining the battery, or drawing randomness.
    ///
    /// This is the health-plane bridge: the periodic gauge sampler runs only
    /// while tracing is enabled, so it must not consume RNG draws or mutate
    /// simulation state — otherwise a traced run would diverge from an
    /// untraced one under the same seed. `peek` reads what the most recent
    /// [`ResourceSampler::sample`] call (driven by the monitoring loop,
    /// which runs regardless of tracing) left behind.
    pub fn peek(&self) -> Sample {
        let mem_used = self.config.mem_baseline_mib + self.active_mem_mib;
        Sample {
            cpu_load: self.ambient_load + self.active_tasks as f64,
            mem_free_mib: self.config.mem_total_mib.saturating_sub(mem_used),
            battery_pct: self.battery_pct,
        }
    }

    /// Takes a sample at `now`, advancing the ambient process and draining
    /// the battery for the elapsed interval.
    pub fn sample(&mut self, now: SimTime, rng: &mut DetRng) -> Sample {
        let elapsed = match self.last_sample {
            Some(prev) => now.checked_duration_since(prev).unwrap_or_default(),
            None => Duration::ZERO,
        };
        self.last_sample = Some(now);

        // Mean-reverting ambient load with bounded noise.
        let noise = rng.uniform(-self.config.volatility, self.config.volatility);
        self.ambient_load +=
            self.config.reversion * (self.config.baseline_load - self.ambient_load) + noise;
        self.ambient_load = self.ambient_load.clamp(0.0, 1.0);

        let cpu_load = self.ambient_load + self.active_tasks as f64;

        // Battery drain over the elapsed interval.
        if let (Some(pct), Some(b)) = (self.battery_pct.as_mut(), self.config.battery) {
            let hours = elapsed.as_secs_f64() / 3600.0;
            let drain = (b.idle_drain_pct_per_hour + b.load_drain_pct_per_hour * cpu_load) * hours;
            *pct = (*pct - drain).max(0.0);
        }

        let mem_used = self.config.mem_baseline_mib + self.active_mem_mib;
        Sample {
            cpu_load,
            mem_free_mib: self.config.mem_total_mib.saturating_sub(mem_used),
            battery_pct: self.battery_pct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_load_stays_near_baseline() {
        let mut s = ResourceSampler::new(SamplerConfig {
            baseline_load: 0.2,
            ..SamplerConfig::default()
        });
        let mut rng = DetRng::seed(7);
        let mut sum = 0.0;
        for i in 1..=500 {
            sum += s.sample(SimTime::from_secs(i), &mut rng).cpu_load;
        }
        let mean = sum / 500.0;
        assert!((0.1..0.35).contains(&mean), "mean load {mean}");
    }

    #[test]
    fn active_tasks_add_full_cores_of_load() {
        let mut s = ResourceSampler::new(SamplerConfig::default());
        let mut rng = DetRng::seed(1);
        s.task_started(100);
        s.task_started(50);
        let sample = s.sample(SimTime::from_secs(1), &mut rng);
        assert!(sample.cpu_load >= 2.0);
        assert_eq!(s.active_tasks(), 2);
        s.task_finished(100);
        s.task_finished(50);
        let sample = s.sample(SimTime::from_secs(2), &mut rng);
        assert!(sample.cpu_load < 1.5);
    }

    #[test]
    fn memory_tracks_working_sets() {
        let mut s = ResourceSampler::new(SamplerConfig::default());
        let mut rng = DetRng::seed(2);
        let before = s.sample(SimTime::from_secs(1), &mut rng).mem_free_mib;
        s.task_started(200);
        let during = s.sample(SimTime::from_secs(2), &mut rng).mem_free_mib;
        assert_eq!(before - during, 200);
        s.task_finished(200);
        let after = s.sample(SimTime::from_secs(3), &mut rng).mem_free_mib;
        assert_eq!(after, before);
    }

    #[test]
    fn battery_drains_over_time_and_faster_under_load() {
        let config = SamplerConfig {
            battery: Some(BatteryConfig::default()),
            ..SamplerConfig::default()
        };
        let mut idle = ResourceSampler::new(config.clone());
        let mut busy = ResourceSampler::new(config);
        busy.task_started(10);
        let mut rng_a = DetRng::seed(3);
        let mut rng_b = DetRng::seed(3);
        let mut idle_pct = 100.0;
        let mut busy_pct = 100.0;
        for i in 1..=10 {
            let t = SimTime::from_secs(i * 600);
            idle_pct = idle.sample(t, &mut rng_a).battery_pct.unwrap();
            busy_pct = busy.sample(t, &mut rng_b).battery_pct.unwrap();
        }
        assert!(idle_pct < 90.0, "idle battery should drain: {idle_pct}");
        assert!(busy_pct < idle_pct, "load should drain faster");
    }

    #[test]
    fn mains_powered_node_reports_no_battery() {
        let mut s = ResourceSampler::new(SamplerConfig::default());
        let mut rng = DetRng::seed(4);
        assert_eq!(s.sample(SimTime::from_secs(1), &mut rng).battery_pct, None);
    }

    #[test]
    fn peek_reads_without_mutating_or_drawing_rng() {
        let mut s = ResourceSampler::new(SamplerConfig {
            battery: Some(BatteryConfig::default()),
            ..SamplerConfig::default()
        });
        let mut rng = DetRng::seed(5);
        let sampled = s.sample(SimTime::from_secs(1), &mut rng);
        let next_draw = rng.uniform(0.0, 1.0);
        // Peeking any number of times returns the same values and leaves
        // the RNG stream untouched.
        assert_eq!(s.peek(), sampled);
        assert_eq!(s.peek(), sampled);
        let mut rng2 = DetRng::seed(5);
        let _ = s.sample(SimTime::from_secs(1), &mut rng2); // replay draw 1
        assert_eq!(rng2.uniform(0.0, 1.0), next_draw);
        // Peek still tracks task registration (no sampling step needed).
        s.task_started(64);
        assert!(s.peek().cpu_load >= 1.0);
        assert_eq!(s.peek().mem_free_mib, sampled.mem_free_mib - 64);
    }

    #[test]
    #[should_panic(expected = "without task_started")]
    fn unbalanced_task_finish_panics() {
        let mut s = ResourceSampler::new(SamplerConfig::default());
        s.task_finished(10);
    }
}
