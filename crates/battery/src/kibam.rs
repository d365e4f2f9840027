//! The Kinetic Battery Model (KiBaM) of Manwell & McGowan.
//!
//! Charge is held in two wells: an *available* well (fraction `c` of
//! capacity) that supplies the load directly, and a *bound* well that feeds
//! the available well through a "valve" with rate constant `k`. The model
//! reproduces both battery phenomena the paper's measurements exhibit:
//!
//! * **rate-capacity effect** — at high current the available well drains
//!   faster than the bound well can refill it, so the battery dies with
//!   bound charge stranded (delivered capacity shrinks with rate);
//! * **recovery effect** — during a rest, bound charge seeps into the
//!   available well and the battery can sustain a subsequent burst
//!   (§6.3: "if the discharge current can drop to a lower level, the lost
//!   capacity can be partially recovered").
//!
//! Each constant-current segment is advanced with the model's *exact*
//! closed-form solution (no ODE integration error). Death inside a segment
//! is located by bisection on the available charge `q1(t)`; a predicted
//! death ([`Battery::time_to_exhaustion`]) is found by Newton's method and
//! rounded to the same microsecond the bisection would return.
//!
//! Both rely on `q1` crossing zero exactly once under constant current `I`.
//! `q1` is *not* concave in general: with `r = e^{−kt}`,
//!
//! ```text
//! q1′(t) = −k·q1₀·r + (q0·k·c − I)·r − I·c·(1 − r)
//! q1″(t) = k·r·(k·(q1₀ − c·q0) + I·(1 − c))
//! ```
//!
//! so `q1″` has one sign for the whole segment: positive (convex) for a
//! fresh or rested battery, whose available well is at or above its
//! equilibrium share `c·q0`, and negative (concave) just after a heavy
//! burst. Since `q1′ → −I·c < 0`, a convex `q1` is strictly decreasing and
//! a concave one rises to at most one maximum and then falls. Starting from
//! `q1(0) > 0`, either shape crosses zero exactly once, and `q1` is
//! decreasing from the crossing on.

use crate::model::{Battery, DischargeOutcome};
use dles_sim::SimTime;
use dles_units::{Hours, MilliAmpHours, MilliAmps};

/// Parameters of a KiBaM battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KibamParams {
    /// Total nominal capacity (both wells).
    pub capacity_mah: MilliAmpHours,
    /// Fraction of capacity in the available well, `0 < c < 1`.
    pub c: f64,
    /// Modified rate constant `k' = k / (c (1 − c))`, in 1/hour.
    pub k: f64,
}

impl KibamParams {
    /// The same cell chemistry (`c`, `k` unchanged) with capacity scaled
    /// by `factor` — manufacturing variance or a partial initial charge.
    pub fn scaled(&self, factor: f64) -> KibamParams {
        assert!(factor > 0.0, "capacity scale must be positive");
        KibamParams {
            capacity_mah: self.capacity_mah * factor,
            ..*self
        }
    }
}

/// Two-well kinetic battery.
#[derive(Debug, Clone)]
pub struct KibamBattery {
    params: KibamParams,
    /// Available charge, mAh (raw: the closed-form well math below works
    /// on bare values; the typed boundary is the public API).
    q1: f64,
    /// Bound charge, mAh.
    q2: f64,
    delivered_mah: MilliAmpHours,
    dead: bool,
}

impl KibamBattery {
    /// A fresh battery: `capacity_mah` total, split `c` available /
    /// `1 − c` bound, with modified rate constant `k` (1/h).
    pub fn new(capacity_mah: f64, c: f64, k: f64) -> Self {
        Self::from_params(KibamParams {
            capacity_mah: MilliAmpHours::new(capacity_mah),
            c,
            k,
        })
    }

    pub fn from_params(params: KibamParams) -> Self {
        assert!(
            params.capacity_mah > MilliAmpHours::ZERO,
            "capacity must be positive"
        );
        assert!(
            params.c > 0.0 && params.c < 1.0,
            "well fraction c must be in (0, 1)"
        );
        assert!(params.k > 0.0, "rate constant must be positive");
        KibamBattery {
            q1: params.c * params.capacity_mah.get(),
            q2: (1.0 - params.c) * params.capacity_mah.get(),
            params,
            delivered_mah: MilliAmpHours::ZERO,
            dead: false,
        }
    }

    pub fn params(&self) -> KibamParams {
        self.params
    }

    /// Charge in the available well.
    pub fn available_mah(&self) -> MilliAmpHours {
        MilliAmpHours::new(self.q1)
    }

    /// Charge in the bound well.
    pub fn bound_mah(&self) -> MilliAmpHours {
        MilliAmpHours::new(self.q2)
    }

    /// Charge stranded in the battery (both wells) right now — at death
    /// this is the paper's "loss of battery capacities".
    pub fn stranded_mah(&self) -> MilliAmpHours {
        MilliAmpHours::new(self.q1 + self.q2)
    }

    /// Closed-form well contents after drawing `current` for `t` from the
    /// current state (Manwell–McGowan). Raw mAh out: the wells are internal.
    fn wells_after(&self, current: MilliAmps, t: Hours) -> (f64, f64) {
        let KibamParams { c, k, .. } = self.params;
        let i_ma = current.get();
        let t_h = t.get();
        let q0 = self.q1 + self.q2;
        let kt = k * t_h;
        let r = (-kt).exp();
        let one_minus_r = -(-kt).exp_m1();
        // kt − 1 + e^{−kt}; ≥ 0, ~kt²/2 for small kt.
        let kt_term = kt + (-kt).exp_m1();
        let q1 = self.q1 * r + (q0 * k * c - i_ma) * one_minus_r / k - i_ma * c * kt_term / k;
        let q2 = self.q2 * r + q0 * (1.0 - c) * one_minus_r - i_ma * (1.0 - c) * kt_term / k;
        (q1, q2)
    }

    /// First time in `(0, t]` at which the available well empties, given
    /// `q1(t) ≤ 0`. Bisection; the crossing is unique (see the module
    /// docs).
    fn death_time(&self, current: MilliAmps, t: Hours) -> Hours {
        let mut lo = 0.0f64;
        let mut hi = t.get();
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.wells_after(current, Hours::new(mid)).0 > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Hours::new(hi)
    }

    /// `q1(t)` (the same closed form as [`Self::wells_after`]), its slope
    /// `q1′(t)` and a bound on the rounding error of any closed-form
    /// evaluation of `q1` in `[0, t]`, from one shared `exp_m1(−k·t)`.
    fn q1_and_slope(&self, current: MilliAmps, t: Hours) -> (f64, f64, f64) {
        let KibamParams { c, k, .. } = self.params;
        let i_ma = current.get();
        let q0 = self.q1 + self.q2;
        let kt = k * t.get();
        let r_minus_1 = (-kt).exp_m1();
        let r = 1.0 + r_minus_1;
        let drive = q0 * k * c - i_ma;
        let q1 = self.q1 * r - drive * r_minus_1 / k - i_ma * c * (kt + r_minus_1) / k;
        let slope = -k * self.q1 * r + drive * r + i_ma * c * r_minus_1;
        // Every term's magnitude, including the operands of the two
        // cancelling differences (`q0·k·c − I` and `kt − (1 − r)`). Each
        // grows with `t` (the first is taken at its maximum, `q1₀`), so
        // this bounds the error at every earlier time too.
        let scale = self.q1 - (q0 * k * c + i_ma) * r_minus_1 / k + i_ma * c * (kt - r_minus_1) / k;
        (q1, slope, 64.0 * f64::EPSILON * scale)
    }

    /// The bisection's answer, `SimTime::from_hours_f64(death_time(current,
    /// t_upper))`, found without running it, or `None` where that cannot
    /// be certified (the caller then bisects).
    ///
    /// Newton's method from `t_upper` finds the root `x` of `q1` (an
    /// iterate that overshoots past zero restarts from `t = 0`). A bracket
    /// `[a, b] = x ∓ δ` is certified by `q1(a) > m`, `q1(b) < −m` and
    /// `q1₀ > m`, where the margin `m` is twice the rounding bound. As `q1`
    /// has one crossing and decreases from it (module docs), every computed
    /// `q1` in `(0, a]` is then positive and every one in `[b, t_upper]` is
    /// not: the bisection's sign at every midpoint outside `[a, b]` is
    /// known, and its result lies in `(a, b]`. If that interval rounds to
    /// one microsecond it is the answer; otherwise the bisection is
    /// replayed, evaluating `q1` only at midpoints inside the bracket.
    fn newton_death_time(&self, current: MilliAmps, t_upper: f64) -> Option<SimTime> {
        let (mut q, mut slope, err) = self.q1_and_slope(current, Hours::new(t_upper));
        let mut x = t_upper;
        let mut converged = false;
        for _ in 0..60 {
            if slope >= 0.0 {
                return None;
            }
            let step = q / slope;
            // Only a convex `q1` overshoots past zero. From `t = 0`,
            // Newton's iterates on a convex decreasing function climb
            // monotonically to its root.
            x = (x - step).max(0.0);
            // Stop on a relative step of 1e-15, or once `q1` is inside its
            // rounding noise, where further steps cannot get closer.
            if step.abs() <= 1e-15 * x || q.abs() <= err {
                converged = true;
                break;
            }
            (q, slope, _) = self.q1_and_slope(current, Hours::new(x));
        }
        let margin = 2.0 * err;
        let delta = 2.0 * margin / -slope;
        let (a, b) = (x - delta, x + delta);
        let bracketed = converged
            && a > 0.0
            && b < t_upper
            && self.q1 > margin
            && self.q1_and_slope(current, Hours::new(a)).0 > margin
            && self.q1_and_slope(current, Hours::new(b)).0 < -margin;
        if !bracketed {
            return None;
        }
        // A final `hi` past `b` would sit within `t_upper·(2^-80 + 2^-52)`
        // (halving plus midpoint rounding) of a final `lo < b`.
        let latest = SimTime::from_hours_f64(b + t_upper * f64::EPSILON * 8.0);
        let earliest = SimTime::from_hours_f64(a);
        if earliest == latest {
            return Some(earliest);
        }
        let (mut lo, mut hi) = (0.0f64, t_upper);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let alive = if mid < a || mid == lo {
                true
            } else if mid > b || mid == hi {
                false
            } else {
                self.wells_after(current, Hours::new(mid)).0 > 0.0
            };
            if alive {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(SimTime::from_hours_f64(hi))
    }

    /// Upper end of the search for death at `current`, or `Err` with the
    /// answer when there is nothing to search: a dead battery (zero time)
    /// or a draw it survives for any representable horizon (`None`).
    fn death_search_bound(&self, current_ma: MilliAmps) -> Result<f64, Option<SimTime>> {
        if self.dead {
            return Err(Some(SimTime::ZERO));
        }
        if current_ma == MilliAmps::ZERO {
            return Err(None);
        }
        // Conservation gives a hard upper bound: at t = (q1+q2)/I the total
        // stored charge is zero, so q1 ≤ 0 there. Near-zero currents push
        // that bound beyond any representable horizon (and to ±inf/NaN in
        // the closed form) — treat those as a battery that never dies
        // rather than saturating SimTime and overflowing callers' event
        // schedules.
        const MAX_HORIZON_H: f64 = 1.0e9; // ~114 000 years ≫ any experiment
        let mut t_upper = (self.stranded_mah() / current_ma).get();
        if !t_upper.is_finite() || t_upper > MAX_HORIZON_H {
            return Err(None);
        }
        // Nudge past the exact conservation bound, then widen geometrically
        // if rounding still leaves q1 marginally positive there (the old
        // fixed +1e-9 offset was not enough for multi-thousand-hour bounds).
        t_upper = t_upper * (1.0 + 1e-12) + 1e-9;
        let mut widen = 0;
        while self.wells_after(current_ma, Hours::new(t_upper)).0 > 0.0 {
            t_upper *= 2.0;
            widen += 1;
            if widen > 64 || t_upper > MAX_HORIZON_H {
                return Err(None);
            }
        }
        Ok(t_upper)
    }

    /// The bisection's time to exhaustion: the reference the Newton path
    /// must match.
    fn bisected_death_time(&self, current_ma: MilliAmps, t_upper: f64) -> SimTime {
        SimTime::from_hours_f64(self.death_time(current_ma, Hours::new(t_upper)).get())
    }

    /// Sign of `q1″` for a draw of `current` from the present state: one
    /// sign for the whole segment (module docs).
    #[cfg(test)]
    fn curvature_sign(&self, current: MilliAmps) -> f64 {
        let KibamParams { c, k, .. } = self.params;
        (k * (self.q1 - c * (self.q1 + self.q2)) + current.get() * (1.0 - c)).signum()
    }

    /// [`Battery::time_to_exhaustion`] by bisection alone.
    #[cfg(test)]
    fn reference_time_to_exhaustion(&self, current_ma: MilliAmps) -> Option<SimTime> {
        match self.death_search_bound(current_ma) {
            Ok(t_upper) => Some(self.bisected_death_time(current_ma, t_upper)),
            Err(answer) => answer,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Predictions on this thread that fell back to the bisection.
    static FALLBACKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Battery for KibamBattery {
    fn discharge(&mut self, duration: SimTime, current_ma: MilliAmps) -> DischargeOutcome {
        assert!(current_ma >= MilliAmps::ZERO, "negative discharge current");
        if self.dead {
            return DischargeOutcome::Exhausted {
                after: SimTime::ZERO,
            };
        }
        let t = Hours::new(duration.as_hours_f64());
        if t == Hours::ZERO {
            return DischargeOutcome::Survived;
        }
        let (q1, q2) = self.wells_after(current_ma, t);
        if q1 > 0.0 {
            self.q1 = q1;
            self.q2 = q2.max(0.0);
            self.delivered_mah += current_ma * t;
            DischargeOutcome::Survived
        } else {
            let td = self.death_time(current_ma, t);
            let (q1d, q2d) = self.wells_after(current_ma, td);
            self.q1 = q1d.max(0.0);
            self.q2 = q2d.max(0.0);
            self.delivered_mah += current_ma * td;
            self.dead = true;
            DischargeOutcome::Exhausted {
                after: SimTime::from_hours_f64(td.get()).min(duration),
            }
        }
    }

    fn is_exhausted(&self) -> bool {
        self.dead
    }

    fn state_of_charge(&self) -> f64 {
        ((self.q1 + self.q2) / self.params.capacity_mah.get()).clamp(0.0, 1.0)
    }

    fn nominal_capacity_mah(&self) -> MilliAmpHours {
        self.params.capacity_mah
    }

    fn delivered_mah(&self) -> MilliAmpHours {
        self.delivered_mah
    }

    fn reset(&mut self) {
        self.q1 = self.params.c * self.params.capacity_mah.get();
        self.q2 = (1.0 - self.params.c) * self.params.capacity_mah.get();
        self.delivered_mah = MilliAmpHours::ZERO;
        self.dead = false;
    }

    fn time_to_exhaustion(&self, current_ma: MilliAmps) -> Option<SimTime> {
        assert!(current_ma >= MilliAmps::ZERO, "negative discharge current");
        let t_upper = match self.death_search_bound(current_ma) {
            Ok(t_upper) => t_upper,
            Err(answer) => return answer,
        };
        match self.newton_death_time(current_ma, t_upper) {
            Some(t) => {
                debug_assert_eq!(
                    t,
                    self.bisected_death_time(current_ma, t_upper),
                    "Newton death time disagrees with the bisection: {self:?} at {current_ma:?}"
                );
                Some(t)
            }
            None => {
                #[cfg(test)]
                FALLBACKS.with(|n| n.set(n.get() + 1));
                Some(self.bisected_death_time(current_ma, t_upper))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ma(v: f64) -> MilliAmps {
        MilliAmps::new(v)
    }

    fn test_battery() -> KibamBattery {
        KibamBattery::new(1000.0, 0.5, 1.0)
    }

    fn run_to_death(b: &mut KibamBattery, current: f64, step_s: u64) -> f64 {
        let mut h = 0.0;
        loop {
            match b.discharge(SimTime::from_secs(step_s), ma(current)) {
                DischargeOutcome::Survived => h += step_s as f64 / 3600.0,
                DischargeOutcome::Exhausted { after } => return h + after.as_hours_f64(),
            }
        }
    }

    #[test]
    fn charge_is_conserved() {
        let mut b = test_battery();
        let before = b.stranded_mah().get();
        b.discharge(SimTime::from_secs(1800), ma(120.0));
        let drawn = 120.0 * 0.5;
        assert!((before - b.stranded_mah().get() - drawn).abs() < 1e-9);
    }

    #[test]
    fn zero_current_conserves_total_but_rebalances() {
        let mut b = test_battery();
        b.discharge(SimTime::from_secs(3600), ma(300.0));
        let total = b.stranded_mah().get();
        let q1_before = b.available_mah().get();
        b.discharge(SimTime::from_secs(3600), ma(0.0));
        assert!((b.stranded_mah().get() - total).abs() < 1e-9);
        assert!(
            b.available_mah().get() > q1_before,
            "rest must refill the available well"
        );
    }

    #[test]
    fn long_rest_reaches_equilibrium_split() {
        let mut b = test_battery();
        b.discharge(SimTime::from_secs(3600), ma(300.0));
        let total = b.stranded_mah().get();
        // Rest for a very long time: q1 → c·total.
        b.discharge(SimTime::from_secs(200 * 3600), ma(0.0));
        assert!((b.available_mah().get() - 0.5 * total).abs() < 1e-6);
    }

    #[test]
    fn rate_capacity_effect() {
        let q_slow = {
            let mut b = test_battery();
            let t = run_to_death(&mut b, 50.0, 60);
            50.0 * t
        };
        let q_fast = {
            let mut b = test_battery();
            let t = run_to_death(&mut b, 500.0, 60);
            500.0 * t
        };
        assert!(
            q_slow > q_fast + 50.0,
            "slow {q_slow} mAh should beat fast {q_fast} mAh"
        );
        // Low-rate discharge extracts nearly the nominal capacity.
        assert!(q_slow > 0.9 * 1000.0);
    }

    #[test]
    fn recovery_effect_pulsed_beats_continuous() {
        // Same on-current; pulsed load interleaves rests. Total *on-time*
        // to death must be longer for the pulsed battery.
        let continuous_on_h = {
            let mut b = test_battery();
            run_to_death(&mut b, 400.0, 10)
        };
        let pulsed_on_h = {
            let mut b = test_battery();
            let mut on_h = 0.0;
            loop {
                match b.discharge(SimTime::from_secs(10), ma(400.0)) {
                    DischargeOutcome::Survived => on_h += 10.0 / 3600.0,
                    DischargeOutcome::Exhausted { after } => {
                        on_h += after.as_hours_f64();
                        break;
                    }
                }
                b.discharge(SimTime::from_secs(10), ma(0.0));
            }
            on_h
        };
        assert!(
            pulsed_on_h > continuous_on_h * 1.05,
            "pulsed {pulsed_on_h} h vs continuous {continuous_on_h} h"
        );
    }

    #[test]
    fn death_leaves_stranded_bound_charge() {
        let mut b = test_battery();
        run_to_death(&mut b, 800.0, 10);
        assert!(b.is_exhausted());
        assert!(b.available_mah().get() < 1e-6);
        assert!(
            b.bound_mah().get() > 10.0,
            "high-rate death must strand bound charge, got {}",
            b.bound_mah().get()
        );
        assert!(b.delivered_mah().get() + b.stranded_mah().get() < 1000.0 + 1e-6);
    }

    #[test]
    fn death_time_bisection_is_tight() {
        let mut b = test_battery();
        // One huge segment; death happens inside it.
        match b.discharge(SimTime::from_secs(1_000_000), ma(200.0)) {
            DischargeOutcome::Exhausted { after } => {
                // At the reported instant the available well is empty.
                assert!(b.available_mah().get().abs() < 1e-6);
                assert!(after > SimTime::ZERO);
            }
            DischargeOutcome::Survived => panic!("battery should have died"),
        }
    }

    #[test]
    fn segment_size_invariance() {
        // Stepping in 1 s or 100 s chunks must give the same lifetime
        // (closed-form stepping is exact).
        let t_fine = {
            let mut b = test_battery();
            run_to_death(&mut b, 230.0, 1)
        };
        let t_coarse = {
            let mut b = test_battery();
            run_to_death(&mut b, 230.0, 100)
        };
        assert!(
            (t_fine - t_coarse).abs() < 0.03,
            "fine {t_fine} vs coarse {t_coarse}"
        );
    }

    #[test]
    fn death_is_terminal() {
        let mut b = test_battery();
        run_to_death(&mut b, 500.0, 60);
        // Even after a long rest the battery stays dead (the pipeline's view
        // of a failed node, §5.4).
        b.discharge(SimTime::from_secs(36_000), ma(0.0));
        assert!(b.is_exhausted());
        assert_eq!(
            b.discharge(SimTime::from_secs(1), ma(1.0)),
            DischargeOutcome::Exhausted {
                after: SimTime::ZERO
            }
        );
    }

    #[test]
    fn reset_restores_wells() {
        let mut b = test_battery();
        run_to_death(&mut b, 500.0, 60);
        b.reset();
        assert!(!b.is_exhausted());
        assert_eq!(b.available_mah().get(), 500.0);
        assert_eq!(b.bound_mah().get(), 500.0);
    }

    #[test]
    #[should_panic(expected = "well fraction")]
    fn invalid_c_rejected() {
        let _ = KibamBattery::new(100.0, 1.5, 1.0);
    }

    #[test]
    fn time_to_exhaustion_consistent_with_discharge() {
        for current in [50.0, 130.0, 400.0] {
            let mut b = test_battery();
            // Partially discharge first so the state is non-trivial.
            b.discharge(SimTime::from_secs(1800), ma(200.0));
            let ttd = b.time_to_exhaustion(ma(current)).expect("finite");
            let mut survivor = b.clone();
            assert_eq!(
                survivor.discharge(ttd.scale_f64(0.999), ma(current)),
                DischargeOutcome::Survived,
                "at {current} mA"
            );
            let mut victim = b.clone();
            assert!(
                victim
                    .discharge(ttd + SimTime::from_secs(5), ma(current))
                    .is_exhausted(),
                "at {current} mA"
            );
        }
    }

    #[test]
    fn time_to_exhaustion_zero_current_is_forever() {
        let b = test_battery();
        assert!(b.time_to_exhaustion(ma(0.0)).is_none());
    }

    #[test]
    fn time_to_exhaustion_near_zero_current_is_forever() {
        // (q1+q2)/I for these currents exceeds any representable horizon;
        // the old closed-form bound produced inf/NaN or saturated SimTime,
        // which overflowed callers' event schedules.
        let b = test_battery();
        for i in [1e-300, 1e-12, 1e-7] {
            assert!(b.time_to_exhaustion(ma(i)).is_none(), "current {i} mA");
        }
        // A small but meaningful current still gets a finite answer.
        let ttd = b.time_to_exhaustion(ma(0.1)).expect("finite");
        assert!(ttd.as_hours_f64() > 9000.0 && ttd.as_hours_f64() < 10_100.0);
    }

    #[test]
    fn death_exactly_on_segment_boundary() {
        // Discharge for exactly the predicted time to death: the segment
        // must report exhaustion at (or within rounding of) its end, with
        // the available well empty — not survive, panic, or overshoot.
        let mut b = test_battery();
        b.discharge(SimTime::from_secs(1800), ma(200.0));
        let ttd = b.time_to_exhaustion(ma(300.0)).expect("finite");
        match b.discharge(ttd, ma(300.0)) {
            DischargeOutcome::Exhausted { after } => {
                assert!(after <= ttd);
                assert!(ttd.as_hours_f64() - after.as_hours_f64() < 1e-6);
                assert!(b.available_mah().get().abs() < 1e-6);
            }
            DischargeOutcome::Survived => {
                // Bisection rounding may land death one microsecond past the
                // segment; the very next instant must kill it.
                assert!(b
                    .discharge(SimTime::from_micros(2), ma(300.0))
                    .is_exhausted());
            }
        }
        assert!(b.is_exhausted());
    }

    #[test]
    fn pulsed_profile_with_zero_current_rest_segments() {
        // Regression for the zero/near-zero-current guard: a pulsed load
        // with explicit rest segments must advance cleanly (rests rebalance
        // the wells, never divide by zero) and conserve charge to death.
        let mut b = test_battery();
        let mut pulses = 0u32;
        loop {
            let out = b.discharge(SimTime::from_secs(60), ma(450.0));
            if out.is_exhausted() {
                break;
            }
            assert!(b.time_to_exhaustion(ma(1e-9)).is_none());
            b.discharge(SimTime::from_secs(30), ma(0.0));
            pulses += 1;
            assert!(pulses < 100_000, "battery never died");
        }
        assert!(pulses > 10, "unexpectedly short pulsed life: {pulses}");
        let total = b.delivered_mah().get() + b.stranded_mah().get();
        assert!((total - 1000.0).abs() < 1e-6 * 1000.0, "total {total}");
    }

    #[test]
    fn time_to_exhaustion_is_tight_in_both_curvature_regimes() {
        let fresh = test_battery();
        let mut burst = test_battery();
        burst.discharge(SimTime::from_secs(1200), ma(800.0));
        for (b, current, curvature) in [(fresh, 300.0, 1.0), (burst, 50.0, -1.0)] {
            assert_eq!(b.curvature_sign(ma(current)), curvature, "at {current} mA");
            let ttd = b.time_to_exhaustion(ma(current)).expect("finite");
            let mut survivor = b.clone();
            assert_eq!(
                survivor.discharge(ttd - SimTime::from_micros(2), ma(current)),
                DischargeOutcome::Survived,
                "at {current} mA"
            );
            let mut victim = b.clone();
            assert!(
                victim
                    .discharge(ttd + SimTime::from_micros(2), ma(current))
                    .is_exhausted(),
                "at {current} mA"
            );
        }
    }

    #[test]
    fn time_to_exhaustion_dead_battery_is_zero() {
        let mut b = test_battery();
        run_to_death(&mut b, 500.0, 60);
        assert_eq!(b.time_to_exhaustion(ma(10.0)), Some(SimTime::ZERO));
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized tests (deterministic, framework-free).

    use super::*;
    use dles_sim::SimRng;

    fn ma(v: f64) -> MilliAmps {
        MilliAmps::new(v)
    }

    /// Total charge is conserved under any random segment sequence:
    /// initial = delivered + stranded (within accumulated fp error).
    #[test]
    fn charge_conservation() {
        let mut rng = SimRng::seed_from_u64(0xC0A5);
        for round in 0..64 {
            let cap = 1000.0;
            let c = rng.uniform_f64(0.1, 0.9);
            let k = rng.uniform_f64(0.05, 5.0);
            let mut b = KibamBattery::new(cap, c, k);
            let n = rng.uniform_u64(1, 49) as usize;
            for _ in 0..n {
                let secs = rng.uniform_u64(1, 3599);
                let i = rng.uniform_f64(0.0, 400.0);
                if b.discharge(SimTime::from_secs(secs), ma(i)).is_exhausted() {
                    break;
                }
            }
            let total = b.delivered_mah().get() + b.stranded_mah().get();
            assert!(
                (total - cap).abs() < 1e-6 * cap,
                "round {round}: delivered {} + stranded {} != {cap}",
                b.delivered_mah().get(),
                b.stranded_mah().get()
            );
        }
    }

    /// Wells never go negative and delivered charge never exceeds the
    /// nominal capacity.
    #[test]
    fn wells_stay_physical() {
        let mut rng = SimRng::seed_from_u64(0x9EE1);
        for _ in 0..64 {
            let mut b = KibamBattery::new(500.0, 0.4, 0.8);
            let n = rng.uniform_u64(1, 39) as usize;
            for _ in 0..n {
                let secs = rng.uniform_u64(1, 7199);
                let i = rng.uniform_f64(0.0, 1000.0);
                b.discharge(SimTime::from_secs(secs), ma(i));
                assert!(b.available_mah().get() >= -1e-9);
                assert!(b.bound_mah().get() >= -1e-9);
                assert!(b.delivered_mah().get() <= 500.0 + 1e-6);
                if b.is_exhausted() {
                    break;
                }
            }
        }
    }

    /// The Newton prediction equals the 80-step bisection to the
    /// microsecond on random batteries, histories and draws, in both
    /// curvature regimes, and rarely needs the bisection to get there.
    #[test]
    fn time_to_exhaustion_matches_bisection() {
        let mut rng = SimRng::seed_from_u64(0x7E57_D1E5);
        let fallbacks_before = FALLBACKS.with(|n| n.get());
        let (mut states, mut convex, mut concave) = (0u64, 0u64, 0u64);
        let log_uniform =
            |rng: &mut SimRng, lo: f64, hi: f64| (rng.uniform_f64(lo.ln(), hi.ln())).exp();
        while states < 50_000 {
            let cap = rng.uniform_f64(50.0, 3000.0);
            let c = rng.uniform_f64(0.05, 0.95);
            let k = rng.uniform_f64(0.01, 20.0);
            let mut b = KibamBattery::new(cap, c, k);
            for _ in 0..rng.uniform_u64(1, 30) {
                for _ in 0..4 {
                    let i = log_uniform(&mut rng, 1e-3, 3000.0);
                    assert_eq!(
                        b.time_to_exhaustion(ma(i)),
                        b.reference_time_to_exhaustion(ma(i)),
                        "{b:?} at {i} mA"
                    );
                    states += 1;
                    if b.curvature_sign(ma(i)) > 0.0 {
                        convex += 1;
                    } else {
                        concave += 1;
                    }
                }
                let i = if rng.uniform_f64(0.0, 1.0) < 0.3 {
                    0.0
                } else {
                    log_uniform(&mut rng, 1e-3, 3000.0)
                };
                let secs = log_uniform(&mut rng, 1.0, 36_000.0) as u64;
                if b.discharge(SimTime::from_secs(secs), ma(i)).is_exhausted() {
                    break;
                }
            }
        }
        let fallbacks = FALLBACKS.with(|n| n.get()) - fallbacks_before;
        assert!(
            convex > states / 20 && concave > states / 20,
            "convex {convex}, concave {concave}"
        );
        assert!(
            fallbacks * 100 < states,
            "{fallbacks} of {states} predictions fell back"
        );
    }

    /// Lifetime at constant current is antitone in the current.
    #[test]
    fn lifetime_monotone_in_current() {
        let life = |i: f64| {
            let mut b = KibamBattery::new(800.0, 0.5, 1.0);
            let mut h = 0.0;
            loop {
                match b.discharge(SimTime::from_secs(600), ma(i)) {
                    DischargeOutcome::Survived => h += 600.0 / 3600.0,
                    DischargeOutcome::Exhausted { after } => return h + after.as_hours_f64(),
                }
            }
        };
        let mut rng = SimRng::seed_from_u64(0x10AD);
        for _ in 0..32 {
            let i1 = rng.uniform_f64(50.0, 300.0);
            let di = rng.uniform_f64(10.0, 300.0);
            assert!(life(i1) > life(i1 + di), "i1 {i1} di {di}");
        }
    }
}
