//! What the printed benches share: a set of samples summarised as its
//! median, least and greatest value.

use std::fmt;

/// The median, least and greatest of a set of samples (the median of an
/// even count is the upper of the middle pair).
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// Summarises `samples`, which must not be empty.
    pub fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

/// `median [min, max]`, each at the format's precision (default 2), the
/// median padded to the format's width: `{:>8.1}` prints `    12.3 [11.9, 14.0]`.
impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(2);
        let median = format!("{:.p$}", self.median);
        let width = f.width().unwrap_or(0);
        write!(f, "{median:>width$} [{:.p$}, {:.p$}]", self.min, self.max)
    }
}
