//! In-loop QoS feedback for measurement-based admission.
//!
//! The paper's policies trust the closed-form eq.-24 admissible region;
//! when the channel model behind it is miscalibrated they over- or
//! under-admit with no detection. This module carries the alternative
//! signal: *observed* QoS, accumulated by the simulation's delivery loop
//! (which already computes the true per-burst δβ̄ every frame) and folded
//! into windowed rates a policy can react to — the
//! measurement-based-admission idea of Jaramillo & Ying, where admission
//! needs no capacity region at all, only violation feedback.
//!
//! # Determinism contract
//!
//! Rates are **piecewise constant**: the [`QosMonitor`] accumulates
//! integer counters and only recomputes the published [`QosFeedback`] when
//! a window of `window_frames` frames closes, incrementing
//! [`QosFeedback::seq`]. Between window boundaries the feedback bits never
//! change, so a policy adapting once per `seq` step sees one signal per
//! window, however many rounds it schedules in between. Everything is
//! integer accumulation and one `u64 → f64` division per window — no RNG,
//! no order sensitivity.

/// Observed QoS of one link direction over the last closed window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DirQos {
    /// Fraction of burst-frame samples whose *true* delivered δβ̄ was below
    /// the scheduler's outage threshold (`min_delta_beta`) — the in-loop
    /// SIR-violation rate. `0` when no burst was active in the window.
    pub outage_rate: f64,
    /// Burst-frame samples behind the rate (active bursts × frames).
    pub samples: u64,
}

/// The published feedback signal: windowed QoS rates per link direction.
///
/// `seq == 0` means no window has closed yet — policies should treat the
/// rates as "no information" and stay at their calibrated operating point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QosFeedback {
    /// Window sequence number; increments exactly once per closed window.
    pub seq: u64,
    /// Forward-link QoS over the last closed window.
    pub fwd: DirQos,
    /// Reverse-link QoS over the last closed window.
    pub rev: DirQos,
    /// Fraction of frames in the last closed window where at least one
    /// cell's forward budget was clamped (overload indicator).
    pub overload_rate: f64,
}

/// Default feedback window: 50 frames = 1 s of simulated time at the
/// 20 ms frame — long enough to smooth burst granularity, short enough to
/// react within a few bursts.
pub const DEFAULT_QOS_WINDOW_FRAMES: u32 = 50;

/// Accumulates per-frame QoS observations and publishes windowed rates.
///
/// Drive it once per frame with [`record_frame`](QosMonitor::record_frame);
/// when it returns `true` a window closed and
/// [`feedback`](QosMonitor::feedback) carries fresh rates under a new
/// [`QosFeedback::seq`].
#[derive(Debug, Clone)]
pub struct QosMonitor {
    window_frames: u32,
    frames: u32,
    fwd_samples: u64,
    fwd_outage: u64,
    rev_samples: u64,
    rev_outage: u64,
    overload_frames: u64,
    feedback: QosFeedback,
}

impl QosMonitor {
    /// Creates a monitor closing a window every `window_frames` frames.
    ///
    /// # Panics
    /// If `window_frames == 0`.
    pub fn new(window_frames: u32) -> Self {
        assert!(window_frames >= 1, "QoS window must be at least one frame");
        Self {
            window_frames,
            frames: 0,
            fwd_samples: 0,
            fwd_outage: 0,
            rev_samples: 0,
            rev_outage: 0,
            overload_frames: 0,
            feedback: QosFeedback::default(),
        }
    }

    /// Records one frame of observations: burst-frame sample and outage
    /// counts per direction, plus the frame's overload indicator. Returns
    /// `true` when this frame closed a window (the published feedback
    /// changed).
    pub fn record_frame(
        &mut self,
        fwd_samples: u64,
        fwd_outage: u64,
        rev_samples: u64,
        rev_outage: u64,
        overloaded: bool,
    ) -> bool {
        self.fwd_samples += fwd_samples;
        self.fwd_outage += fwd_outage;
        self.rev_samples += rev_samples;
        self.rev_outage += rev_outage;
        self.overload_frames += overloaded as u64;
        self.frames += 1;
        if self.frames < self.window_frames {
            return false;
        }
        let rate = |out: u64, n: u64| if n == 0 { 0.0 } else { out as f64 / n as f64 };
        self.feedback = QosFeedback {
            seq: self.feedback.seq + 1,
            fwd: DirQos {
                outage_rate: rate(self.fwd_outage, self.fwd_samples),
                samples: self.fwd_samples,
            },
            rev: DirQos {
                outage_rate: rate(self.rev_outage, self.rev_samples),
                samples: self.rev_samples,
            },
            overload_rate: self.overload_frames as f64 / self.frames as f64,
        };
        self.frames = 0;
        self.fwd_samples = 0;
        self.fwd_outage = 0;
        self.rev_samples = 0;
        self.rev_outage = 0;
        self.overload_frames = 0;
        true
    }

    /// The most recently published feedback (piecewise constant between
    /// window boundaries).
    pub fn feedback(&self) -> &QosFeedback {
        &self.feedback
    }

    /// The configured window length in frames.
    pub fn window_frames(&self) -> u32 {
        self.window_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_publish_only_on_window_close() {
        let mut m = QosMonitor::new(4);
        for i in 0..3 {
            assert!(!m.record_frame(10, 1, 0, 0, false), "frame {i}");
            assert_eq!(m.feedback().seq, 0, "no window closed yet");
        }
        assert!(m.record_frame(10, 1, 0, 0, true));
        let fb = *m.feedback();
        assert_eq!(fb.seq, 1);
        assert_eq!(fb.fwd.samples, 40);
        assert!((fb.fwd.outage_rate - 0.1).abs() < 1e-12);
        assert_eq!(fb.rev.samples, 0);
        assert_eq!(fb.rev.outage_rate, 0.0, "no samples ⇒ rate 0");
        assert!((fb.overload_rate - 0.25).abs() < 1e-12);
    }

    #[test]
    fn windows_reset_and_seq_increments() {
        let mut m = QosMonitor::new(2);
        m.record_frame(5, 5, 0, 0, false);
        m.record_frame(5, 5, 0, 0, false);
        assert_eq!(m.feedback().seq, 1);
        assert_eq!(m.feedback().fwd.outage_rate, 1.0);
        m.record_frame(10, 0, 2, 1, false);
        m.record_frame(10, 0, 2, 1, false);
        let fb = *m.feedback();
        assert_eq!(fb.seq, 2);
        assert_eq!(fb.fwd.outage_rate, 0.0, "windows must not leak");
        assert!((fb.rev.outage_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_window_rejected() {
        let _ = QosMonitor::new(0);
    }
}
