//! Workload prediction (the paper's Section 3.1.4, first item).
//!
//! HARS's stock predictor assumes the next adaptation period's workload
//! equals the last observation. The paper suggests a Kalman filter "
//! which dynamically predicts the uncertain workload in a more precise
//! manner using educated guesses" (citing Hoffmann et al.'s POET-style
//! use). This module provides both: [`Predictor::LastValue`] and a
//! scalar Kalman filter over the observed heartbeat rate.

/// A scalar (1-D) Kalman filter tracking a noisy rate signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kalman1D {
    /// Current state estimate (hb/s).
    x: f64,
    /// Estimate covariance.
    p: f64,
    /// Process noise (how fast the true workload drifts).
    q: f64,
    /// Measurement noise (heartbeat-rate jitter).
    r: f64,
    /// Whether the filter has been initialized with an observation.
    primed: bool,
}

impl Kalman1D {
    /// Creates a filter with process noise `q` and measurement noise
    /// `r` (both variances; the defaults in [`Predictor::kalman`] suit
    /// heartbeat rates in the 1–100 hb/s range).
    ///
    /// # Panics
    ///
    /// Panics unless `q > 0` and `r > 0`.
    pub fn new(q: f64, r: f64) -> Self {
        assert!(q > 0.0 && r > 0.0, "noise variances must be positive");
        Self {
            x: 0.0,
            p: 1.0,
            q,
            r,
            primed: false,
        }
    }

    /// Feeds one observation and returns the filtered estimate.
    pub fn update(&mut self, z: f64) -> f64 {
        if !self.primed {
            self.x = z;
            self.p = self.r;
            self.primed = true;
            return self.x;
        }
        // Predict: random-walk model.
        self.p += self.q;
        // Update.
        let k = self.p / (self.p + self.r);
        self.x += k * (z - self.x);
        self.p *= 1.0 - k;
        self.x
    }

    /// The current estimate without feeding a new observation.
    pub fn estimate(&self) -> Option<f64> {
        if self.primed {
            Some(self.x)
        } else {
            None
        }
    }

    /// Resets the filter (e.g. after a deliberate state change, when the
    /// tracked signal jumps by design).
    pub fn reset(&mut self) {
        self.primed = false;
        self.p = 1.0;
    }
}

/// The workload predictor used by the runtime manager.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Predictor {
    /// The paper's default: the next period looks like the last one.
    #[default]
    LastValue,
    /// Kalman-filtered rate (the Section 3.1.4 extension).
    Kalman(Kalman1D),
}

impl Predictor {
    /// A Kalman predictor with defaults tuned for heartbeat rates:
    /// moderate drift, noticeable per-window jitter.
    pub fn kalman() -> Self {
        Predictor::Kalman(Kalman1D::new(0.05, 1.0))
    }

    /// Feeds an observed rate, returning the rate the manager should
    /// act on.
    pub fn observe(&mut self, rate: f64) -> f64 {
        match self {
            Predictor::LastValue => rate,
            Predictor::Kalman(k) => k.update(rate),
        }
    }

    /// Notifies the predictor that the system state changed (the signal
    /// will jump; a filter must not smooth across the jump).
    pub fn on_state_change(&mut self) {
        if let Predictor::Kalman(k) = self {
            k.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_is_identity() {
        let mut p = Predictor::LastValue;
        assert_eq!(p.observe(3.5), 3.5);
        assert_eq!(p.observe(7.0), 7.0);
    }

    #[test]
    fn kalman_smooths_noise() {
        let mut k = Kalman1D::new(0.01, 1.0);
        // Constant truth 10 with alternating ±2 noise.
        let mut last = 0.0;
        for i in 0..100 {
            let z = 10.0 + if i % 2 == 0 { 2.0 } else { -2.0 };
            last = k.update(z);
        }
        assert!(
            (last - 10.0).abs() < 0.5,
            "filtered {last} should hug the truth"
        );
        // The raw signal's deviation is 2.0; the filter's must be much
        // smaller.
        let a = k.update(12.0);
        assert!((a - 10.0).abs() < 1.0);
    }

    #[test]
    fn kalman_tracks_drift() {
        let mut k = Kalman1D::new(0.5, 0.5);
        for i in 0..200 {
            k.update(10.0 + i as f64 * 0.1);
        }
        let est = k.estimate().unwrap();
        assert!((est - 29.9).abs() < 2.0, "estimate {est} lags the ramp");
    }

    #[test]
    fn first_observation_primes() {
        let mut k = Kalman1D::new(0.1, 1.0);
        assert!(k.estimate().is_none());
        assert_eq!(k.update(42.0), 42.0);
        assert_eq!(k.estimate(), Some(42.0));
    }

    #[test]
    fn reset_forgets() {
        let mut p = Predictor::kalman();
        p.observe(10.0);
        p.observe(10.0);
        p.on_state_change();
        // After reset the next observation is taken at face value.
        assert_eq!(p.observe(99.0), 99.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_noise_panics() {
        let _ = Kalman1D::new(0.0, 1.0);
    }
}
