//! A dense primal simplex solver for the LP relaxation of the scheduling
//! problem.
//!
//! Standard form handled: `maximize c'x  s.t.  A x ≤ b, 0 ≤ x ≤ u` — upper
//! bounds are expanded into explicit rows (the problems here have ≤ 19 cells
//! × ≤ 32 requests, so a dense tableau is perfectly adequate). Every solve
//! starts from the all-slack basis and pivots by Dantzig's rule, switching
//! to Bland's rule past a safety iteration count.
//!
//! Used for:
//! * the true LP-relaxation value, giving the **integrality gap** of the
//!   scheduling integer program (reported in experiment E7);
//! * an independent upper bound to cross-check the branch-and-bound pruning
//!   bounds in property tests.

/// Result of an LP solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LpSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Objective value.
    pub objective: f64,
}

/// Maximises `c'x` subject to `A x ≤ b`, `0 ≤ x ≤ u`, where `a` is the flat
/// row-major constraint matrix (`b.len()` rows × `c.len()` columns).
///
/// Assumes `b ≥ 0` (true for admissible-region headrooms), so the all-slack
/// basis is feasible and no phase-1 is needed. Returns `None` only if the
/// iteration limit trips (cycling with degenerate data is prevented by
/// Bland's rule).
fn solve(c: &[f64], a: &[f64], b: &[f64], u: &[f64]) -> Option<LpSolution> {
    let n = c.len();
    let k = b.len();
    assert_eq!(a.len(), k * n, "flat matrix size mismatch");
    assert_eq!(u.len(), n, "bounds length mismatch");
    assert!(b.iter().all(|&x| x >= 0.0), "need non-negative rhs");
    assert!(
        u.iter().all(|&x| x >= 0.0 && x.is_finite()),
        "bad upper bound"
    );

    // Flat (m+1) × w tableau: k constraint rows, n upper-bound rows, then
    // the objective row; columns are x, the m slacks, and the rhs.
    let m = k + n;
    let w = n + m + 1;
    let mut t = vec![0.0; (m + 1) * w];
    for i in 0..k {
        t[i * w..i * w + n].copy_from_slice(&a[i * n..i * n + n]);
        t[i * w + n + i] = 1.0;
        t[i * w + w - 1] = b[i];
    }
    for j in 0..n {
        let r = k + j;
        t[r * w + j] = 1.0;
        t[r * w + n + k + j] = 1.0;
        t[r * w + w - 1] = u[j];
    }
    // Objective row: maximize c'x ⇒ store -c, drive to non-negative.
    for j in 0..n {
        t[m * w + j] = -c[j];
    }
    let mut basis: Vec<usize> = (n..n + m).collect();

    let max_iters = 200 * (m + n);
    let mut optimal = false;
    for iter in 0..max_iters {
        // Entering column: most negative reduced cost (Dantzig), switching
        // to Bland's rule (lowest index) beyond a safety iteration count.
        let bland = iter > 50 * (m + n);
        let mut enter: Option<usize> = None;
        let mut best = -1e-9;
        for j in 0..w - 1 {
            let rc = t[m * w + j];
            if rc < best {
                if bland {
                    enter = Some(j);
                    break;
                }
                best = rc;
                enter = Some(j);
            }
        }
        let Some(e) = enter else {
            optimal = true;
            break;
        };
        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut min_ratio = f64::INFINITY;
        for i in 0..m {
            if t[i * w + e] > 1e-12 {
                let ratio = t[i * w + w - 1] / t[i * w + e];
                if ratio < min_ratio - 1e-12
                    || (bland
                        && (ratio - min_ratio).abs() <= 1e-12
                        && leave.map(|l| basis[i] < basis[l]).unwrap_or(false))
                {
                    min_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        // Upper bounds are explicit rows, so the LP cannot be unbounded.
        let l = leave?;
        pivot(&mut t, w, l, e);
        basis[l] = e;
    }
    if !optimal {
        return None;
    }

    let mut x = vec![0.0; n];
    for (i, &bv) in basis.iter().enumerate() {
        if bv < n {
            x[bv] = t[i * w + w - 1];
        }
    }
    let objective = c.iter().zip(&x).map(|(&cj, &xj)| cj * xj).sum();
    Some(LpSolution { x, objective })
}

/// Pivot on `(row, col)` of the flat tableau `t` (row width `w`): normalize
/// the pivot row, eliminate the column from every other row (objective row
/// included).
fn pivot(t: &mut [f64], w: usize, row: usize, col: usize) {
    let piv = t[row * w + col];
    for v in &mut t[row * w..(row + 1) * w] {
        *v /= piv;
    }
    let pivot_row = t[row * w..(row + 1) * w].to_vec();
    for (i, r) in t.chunks_exact_mut(w).enumerate() {
        if i != row {
            let f = r[col];
            if f != 0.0 {
                for (vi, pv) in r.iter_mut().zip(&pivot_row) {
                    *vi -= f * pv;
                }
            }
        }
    }
}

/// Maximises `c'x` subject to `A x ≤ b`, `0 ≤ x ≤ u`, with `A` given as
/// nested constraint rows. Assumes `b ≥ 0`; returns `None` only if the
/// iteration limit trips.
pub fn simplex_max(c: &[f64], a: &[Vec<f64>], b: &[f64], u: &[f64]) -> Option<LpSolution> {
    let n = c.len();
    assert!(a.iter().all(|r| r.len() == n), "row width mismatch");
    assert_eq!(a.len(), b.len(), "row/rhs mismatch");
    let flat: Vec<f64> = a.iter().flatten().copied().collect();
    solve(c, &flat, b, u)
}

/// LP relaxation of a scheduling [`crate::Problem`] (ignoring the
/// semi-continuous `lo` restriction — a valid upper bound on the IP).
pub fn lp_relaxation(p: &crate::Problem) -> Option<LpSolution> {
    // Negative weights never help a ≤/≥0 LP: clamp to zero (the IP rejects
    // such variables too).
    let c: Vec<f64> = p.c.iter().map(|&x| x.max(0.0)).collect();
    let u: Vec<f64> =
        p.hi.iter()
            .zip(&p.lo)
            .map(|(&h, &l)| if h >= l { h as f64 } else { 0.0 })
            .collect();
    solve(&c, &p.a, &p.b, &u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::solvers::{branch_and_bound, exhaustive};

    #[test]
    fn textbook_lp() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, bounds loose.
        let sol = simplex_max(
            &[3.0, 5.0],
            &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            &[4.0, 12.0, 18.0],
            &[100.0, 100.0],
        )
        .expect("solvable");
        assert!((sol.objective - 36.0).abs() < 1e-9, "obj {}", sol.objective);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bounds_bind() {
        // max x, x ≤ 10 via row but u = 3: answer 3.
        let sol = simplex_max(&[1.0], &[vec![1.0]], &[10.0], &[3.0]).expect("solvable");
        assert!((sol.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_zero_solution() {
        let sol =
            simplex_max(&[5.0, 2.0], &[vec![1.0, 1.0]], &[0.0], &[4.0, 4.0]).expect("solvable");
        assert!(sol.objective.abs() < 1e-9);
    }

    #[test]
    fn relaxation_upper_bounds_ip() {
        let p = Problem::new(
            vec![1.0, 3.0, 2.0],
            vec![vec![1.0, 2.0, 1.5], vec![0.5, 1.0, 2.0]],
            vec![10.0, 8.0],
            vec![1, 1, 1],
            vec![4, 4, 4],
        );
        let lp = lp_relaxation(&p).expect("solvable");
        let ip = exhaustive(&p);
        assert!(
            lp.objective >= ip.objective - 1e-9,
            "LP {} must dominate IP {}",
            lp.objective,
            ip.objective
        );
        // Fractional solution within box bounds.
        assert!(lp.x.iter().all(|&x| (-1e-9..=4.0 + 1e-9).contains(&x)));
    }

    #[test]
    fn relaxation_dominates_bb_on_random_instances() {
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..30 {
            let n = 2 + (next() * 4.0) as usize;
            let k = 1 + (next() * 3.0) as usize;
            let c: Vec<f64> = (0..n).map(|_| (next() * 8.0).max(0.01)).collect();
            let a: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..n).map(|_| next() * 2.0).collect())
                .collect();
            let b: Vec<f64> = (0..k).map(|_| 1.0 + next() * 10.0).collect();
            let lo = vec![1u32; n];
            let hi: Vec<u32> = (0..n).map(|_| 1 + (next() * 8.0) as u32).collect();
            let p = Problem::new(c, a, b, lo, hi);
            let lp = lp_relaxation(&p).expect("LP solvable");
            let (ip, complete) = branch_and_bound(&p, 0);
            assert!(complete);
            assert!(
                lp.objective >= ip.objective - 1e-6,
                "LP {} < IP {}",
                lp.objective,
                ip.objective
            );
        }
    }

    #[test]
    fn degenerate_rows_no_cycle() {
        // Multiple identical rows with zero rhs: heavily degenerate.
        let sol = simplex_max(
            &[1.0, 1.0],
            &[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]],
            &[0.0, 0.0, 0.0],
            &[5.0, 5.0],
        )
        .expect("must terminate");
        assert!(sol.objective.abs() < 1e-9);
    }
}
