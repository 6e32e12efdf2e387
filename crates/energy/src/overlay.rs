//! Transactional view over an [`EnergyLedger`].
//!
//! Committing a multi-slot reservation plan must be atomic: a request that
//! is feasible slot-by-slot in isolation can become infeasible once its own
//! earlier slots have consumed the satellite's solar input. The overlay
//! runs the exact commit recursion against a copy-on-write view; the caller
//! either [`EnergyLedger::absorb`]s the overlay (all slots fit) or drops it
//! (no state was touched).

use crate::ledger::{DeficitTrace, EnergyLedger};
use std::collections::HashMap;

/// The pending changes of a [`LedgerOverlay`], detached from the ledger
/// borrow so they can be absorbed.
#[derive(Debug, Clone, Default)]
pub struct LedgerDelta {
    solar: HashMap<usize, f64>,
    deficit: HashMap<usize, f64>,
}

impl LedgerDelta {
    pub(crate) fn into_parts(self) -> (HashMap<usize, f64>, HashMap<usize, f64>) {
        (self.solar, self.deficit)
    }

    /// Flat ledger indices (see [`EnergyLedger::flat_index`]) whose
    /// cumulative deficit this delta modifies, in unspecified order.
    ///
    /// Deficit cells are exactly what
    /// [`EnergyLedger::battery_utilization`] reads, so absorbing the delta
    /// invalidates cached battery prices for these cells and no others.
    pub fn deficit_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.deficit.keys().copied()
    }
}

/// A copy-on-write transactional view of an [`EnergyLedger`].
///
/// Create with [`EnergyLedger::overlay`]; apply with
/// [`EnergyLedger::absorb`].
///
/// # Example
///
/// ```
/// use sb_energy::{EnergyLedger, EnergyParams};
///
/// let params = EnergyParams::default();
/// let mut ledger = EnergyLedger::new(&params, 60.0, &[vec![false, false]]);
/// let mut tx = ledger.overlay();
/// assert!(tx.try_commit(0, 0, 500.0).is_some());
/// assert_eq!(ledger.deficit_j(0, 0), 0.0); // nothing applied yet
/// let delta = tx.into_delta();
/// ledger.absorb(delta);
/// assert_eq!(ledger.deficit_j(0, 0), 500.0);
/// ```
#[derive(Debug)]
pub struct LedgerOverlay<'a> {
    base: &'a EnergyLedger,
    /// Modified remaining-solar entries, by flat index.
    solar: HashMap<usize, f64>,
    /// Modified cumulative-deficit entries, by flat index.
    deficit: HashMap<usize, f64>,
}

impl<'a> LedgerOverlay<'a> {
    pub(crate) fn new(base: &'a EnergyLedger) -> Self {
        LedgerOverlay { base, solar: HashMap::new(), deficit: HashMap::new() }
    }

    /// Detaches the pending changes from the borrowed ledger so they can
    /// be applied with [`EnergyLedger::absorb`].
    pub fn into_delta(self) -> LedgerDelta {
        LedgerDelta { solar: self.solar, deficit: self.deficit }
    }

    /// Remaining solar energy of `sat` at slot `t` as seen through the
    /// overlay.
    pub fn remaining_solar_j(&self, sat: usize, t: usize) -> f64 {
        let i = self.base.flat_index(sat, t);
        *self.solar.get(&i).unwrap_or(&self.base.solar_flat(i))
    }

    /// Cumulative deficit of `sat` at slot `t` as seen through the overlay.
    pub fn deficit_j(&self, sat: usize, t: usize) -> f64 {
        let i = self.base.flat_index(sat, t);
        *self.deficit.get(&i).unwrap_or(&self.base.deficit_flat(i))
    }

    /// Battery level `b_s(T)` as seen through the overlay.
    pub fn battery_level_j(&self, sat: usize, t: usize) -> f64 {
        self.base.params().battery_capacity_j - self.deficit_j(sat, t)
    }

    /// Runs the commit recursion **without mutating the overlay**: the
    /// deficits the consumption would add on top of the overlay's state,
    /// or `None` when some slot's battery would be over-drawn.
    pub fn peek(&self, sat: usize, t_a: usize, consumption_j: f64) -> Option<DeficitTrace> {
        let horizon = self.base.horizon();
        let cap = self.base.params().battery_capacity_j;
        let mut trace = DeficitTrace::default();
        let mut d = (consumption_j - self.remaining_solar_j(sat, t_a)).max(0.0);
        let mut t = t_a;
        while d > 0.0 && t < horizon {
            if t > t_a {
                d = (d - self.remaining_solar_j(sat, t)).max(0.0);
                if d <= 0.0 {
                    break;
                }
            }
            if self.deficit_j(sat, t) + d > cap {
                return None;
            }
            trace.per_slot.push((t, d));
            trace.added_deficit_j += d;
            t += 1;
        }
        Some(trace)
    }

    /// Runs the commit recursion (Algorithm 1 lines 9–16) against the
    /// overlay. Returns `None` — leaving the overlay dirty, discard it —
    /// when some slot's battery would be over-drawn.
    pub fn try_commit(
        &mut self,
        sat: usize,
        t_a: usize,
        consumption_j: f64,
    ) -> Option<DeficitTrace> {
        let horizon = self.base.horizon();
        let cap = self.base.params().battery_capacity_j;
        let mut trace = DeficitTrace::default();

        // Slot T_a: Ω̄ ← max(0, Ω − α); α ← max(0, α − Ω).
        let s0 = self.remaining_solar_j(sat, t_a);
        let mut d = (consumption_j - s0).max(0.0);
        self.solar.insert(self.base.flat_index(sat, t_a), (s0 - consumption_j).max(0.0));

        let mut t = t_a;
        while d > 0.0 && t < horizon {
            if t > t_a {
                // Slot T > T_a: α absorbs the carried deficit first.
                let s = self.remaining_solar_j(sat, t);
                let carried = d;
                d = (d - s).max(0.0);
                self.solar.insert(self.base.flat_index(sat, t), (s - carried).max(0.0));
                if d <= 0.0 {
                    break;
                }
            }
            let new_deficit = self.deficit_j(sat, t) + d;
            if new_deficit > cap {
                return None; // constraint (7c) would be violated
            }
            self.deficit.insert(self.base.flat_index(sat, t), new_deficit);
            trace.per_slot.push((t, d));
            trace.added_deficit_j += d;
            t += 1;
        }
        Some(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EnergyParams;

    fn ledger(profiles: &[Vec<bool>]) -> EnergyLedger {
        EnergyLedger::new(&EnergyParams::default(), 60.0, profiles)
    }

    #[test]
    fn overlay_reads_through_to_base() {
        let mut l = ledger(&[vec![true, false]]);
        l.commit(0, 0, 700.0);
        let tx = l.overlay();
        assert_eq!(tx.remaining_solar_j(0, 0), 500.0);
        assert_eq!(tx.deficit_j(0, 1), 0.0);
        assert_eq!(tx.battery_level_j(0, 1), 117_000.0);
    }

    #[test]
    fn overlay_commit_matches_direct_commit() {
        let profiles = vec![vec![true, false, false, true]];
        let mut a = ledger(&profiles);
        let mut b = ledger(&profiles);

        let mut tx = a.overlay();
        let t1 = tx.try_commit(0, 0, 2000.0).unwrap();
        let t2 = tx.try_commit(0, 1, 900.0).unwrap();
        let delta = tx.into_delta();
        a.absorb(delta);

        let d1 = b.commit(0, 0, 2000.0);
        let d2 = b.commit(0, 1, 900.0);
        assert_eq!(t1, d1);
        assert_eq!(t2, d2);
        assert_eq!(a, b);
    }

    #[test]
    fn failed_overlay_leaves_base_untouched() {
        let l = ledger(&[vec![false, false]]);
        let before = l.clone();
        let mut tx = l.overlay();
        // First fits, second overdraws the battery.
        assert!(tx.try_commit(0, 0, 100_000.0).is_some());
        assert!(tx.try_commit(0, 1, 50_000.0).is_none());
        drop(tx);
        assert_eq!(l, before);
    }

    #[test]
    fn peek_matches_try_commit_and_does_not_mutate() {
        let l = ledger(&[vec![true, false, false, true]]);
        let mut tx = l.overlay();
        tx.try_commit(0, 0, 2000.0).unwrap();
        let peeked = tx.peek(0, 1, 900.0).unwrap();
        let committed = tx.try_commit(0, 1, 900.0).unwrap();
        assert_eq!(peeked, committed);
    }

    #[test]
    fn peek_detects_infeasibility_on_overlay_state() {
        let l = ledger(&[vec![false, false]]);
        let mut tx = l.overlay();
        tx.try_commit(0, 0, 116_500.0).unwrap();
        assert!(tx.peek(0, 1, 1000.0).is_none());
        assert!(tx.peek(0, 1, 400.0).is_some());
    }

    #[test]
    fn sequential_slots_interact_within_overlay() {
        // Sunlit both slots: a commit at slot 0 bigger than slot-0 solar
        // rolls into slot 1's solar, which the second commit then lacks.
        let l = ledger(&[vec![true, true]]);
        let mut tx = l.overlay();
        tx.try_commit(0, 0, 2000.0).unwrap(); // 800 J rolls into slot 1
        let t2 = tx.try_commit(0, 1, 1000.0).unwrap();
        // Slot 1 has only 400 J of solar left → 600 J deficit.
        assert_eq!(t2.per_slot, vec![(1, 600.0)]);
    }
}
