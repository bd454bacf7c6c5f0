//! Order statistics, the metric sheet a run fills in, and the process's
//! peak resident set size.

use diode_serve::Json;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the same rule as Python's `statistics.quantiles(...,
/// method="inclusive")`). `NaN` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q`-quantile estimated as the mean of the quantiles from `q - 0.05`
/// to `q + 0.05` in steps of 0.01. It moves smoothly where samples
/// cluster: the daemon's job latencies, for one, bunch at multiples of
/// its heartbeat interval, and a plain quantile there jumps a whole
/// interval when a few jobs cross a boundary.
pub fn kernel_quantile(values: &[f64], q: f64) -> f64 {
    let points: Vec<f64> = (-5..=5)
        .map(|i| quantile(values, q + f64::from(i) / 100.0))
        .collect();
    mean(&points)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The named metrics one run reports, in insertion order, plus the
/// sample count behind each (for the human-readable table).
#[derive(Debug, Default)]
pub struct Sheet {
    rows: Vec<Row>,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Sheet {
    /// Records one metric measured over `samples` observations.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.rows.push(Row {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// Names whose value is not a finite number — a run that produced
    /// one cannot report a result.
    pub fn non_finite(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| !r.value.is_finite())
            .map(|r| r.name.as_str())
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}`
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        for r in &self.rows {
            out = out.field(
                &r.name,
                Json::obj().field("value", r.value).field("unit", r.unit),
            );
        }
        out
    }

    /// The same rows with their sample counts, for the detail line.
    pub fn to_detail_json(&self) -> Json {
        let mut out = Json::obj();
        for r in &self.rows {
            out = out.field(
                &r.name,
                Json::obj()
                    .field("value", r.value)
                    .field("unit", r.unit)
                    .field("samples", r.samples),
            );
        }
        out
    }
}

/// Takes the median of each named per-sample metric across several
/// samples (e.g. traced campaign iterations) into `sheet`.
pub fn put_medians(sheet: &mut Sheet, samples: &[Sheet]) {
    let Some(first) = samples.first() else {
        return;
    };
    for row in first.rows() {
        let values: Vec<f64> = samples.iter().filter_map(|s| s.get(&row.name)).collect();
        sheet.put(&row.name, median(&values), row.unit, values.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
        assert!(median(&[]).is_nan());
        let flat: Vec<f64> = (0..101).map(f64::from).collect();
        assert!((kernel_quantile(&flat, 0.5) - 50.0).abs() < 1e-9);
        assert!((kernel_quantile(&flat, 0.9) - 90.0).abs() < 1e-9);
    }
}
