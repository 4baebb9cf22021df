//! Small statistics helpers: summary statistics and ordinary least squares.
//!
//! Section 5.6 of the paper extracts linear models such as
//! `reboot_os(n) = 3.8 n + 13` from measurements at n = 1..=11; the
//! [`linear_fit`] function performs exactly that extraction for our
//! regenerated data.

use std::fmt;

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Result of an ordinary-least-squares straight-line fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination (1.0 = perfect fit). `NaN` when the
    /// response has zero variance.
    pub r_squared: f64,
}

impl LinearFit {
    /// Evaluates the fitted line at `x`.
    pub fn at(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

impl fmt::Display for LinearFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.intercept >= 0.0 {
            write!(f, "{:.2}n + {:.2}", self.slope, self.intercept)
        } else {
            write!(f, "{:.2}n - {:.2}", self.slope, -self.intercept)
        }
    }
}

/// Fits `y = slope·x + intercept` by ordinary least squares.
///
/// Returns `None` when fewer than two points are given, when the slices have
/// different lengths, or when all `x` values coincide (vertical line).
///
/// # Examples
///
/// ```
/// use rh_sim::stats::linear_fit;
///
/// let xs = [1.0, 2.0, 3.0];
/// let ys = [5.0, 7.0, 9.0];
/// let fit = linear_fit(&xs, &ys).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 3.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// ```
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    // lint:allow(float-eq): degenerate-input guard, exact 0.0 sentinel
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (slope * x + intercept);
            e * e
        })
        .sum();
    // lint:allow(float-eq): same degenerate-input guard as sxx above
    let r_squared = if syy == 0.0 {
        f64::NAN
    } else {
        1.0 - ss_res / syy
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_and_pair() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn perfect_line_recovered() {
        let xs: Vec<f64> = (1..=11).map(|n| n as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.8 * x + 13.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 3.8).abs() < 1e-9);
        assert!((fit.intercept - 13.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.at(5.0) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_fit_is_reasonable() {
        use crate::rng::SimRng;
        let mut rng = SimRng::from_seed(77);
        let xs: Vec<f64> = (0..200).map(|n| n as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| -0.55 * x + 43.0 + (rng.next_f64() - 0.5))
            .collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope + 0.55).abs() < 0.01, "slope {}", fit.slope);
        assert!((fit.intercept - 43.0).abs() < 1.0);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_none());
        assert!(linear_fit(&[3.0, 3.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn flat_response_has_nan_r2() {
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert!(fit.r_squared.is_nan());
    }

    #[test]
    fn display_formats_sign() {
        let f = LinearFit {
            slope: 3.9,
            intercept: 60.0,
            r_squared: 1.0,
        };
        assert_eq!(f.to_string(), "3.90n + 60.00");
        let g = LinearFit {
            slope: 0.43,
            intercept: -0.07,
            r_squared: 1.0,
        };
        assert_eq!(g.to_string(), "0.43n - 0.07");
    }
}
