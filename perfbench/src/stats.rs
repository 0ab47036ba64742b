//! Order statistics and Prometheus scrapes.

use std::collections::BTreeMap;

/// The `p`-quantile (0..=1) of `samples` by nearest rank; NaN when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Medians of the first and second half of `samples` (in arrival
/// order), so a trend inside the timed phase shows instead of averaging
/// away.
pub fn half_medians(samples: &[f64]) -> (f64, f64) {
    let mid = samples.len() / 2;
    (median(&samples[..mid]), median(&samples[mid..]))
}

/// One Prometheus text scrape: series (name plus labels) to value.
#[derive(Debug, Default, Clone)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses Prometheus text exposition.
    pub fn parse(text: &str) -> Scrape {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_owned(), value.parse::<f64>().ok()?))
            })
            .collect();
        Scrape(series)
    }

    /// Sum of every series named exactly `name`, whatever its labels.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// Series-wise `self + other`, for summing scrapes of several processes.
    pub fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// `after.get(name) - before.get(name)`.
    pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
        after.get(name) - before.get(name)
    }
}
