//! Text dashboards — the simulated stand-in for the demo GUI's live
//! charts (Fig. 6: "Elasticity control and monitoring interface").
//!
//! Renders time series as Unicode sparklines and block charts so the
//! examples and experiment binaries can show controller behaviour in a
//! terminal.

use flower_sim::SimTime;

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render values as a one-line sparkline. Empty input yields an empty
/// string; a constant series renders at the lowest level.
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            let idx = if span <= 0.0 {
                0
            } else {
                (((v - lo) / span) * 7.0).round() as usize
            };
            SPARK_LEVELS[idx.min(7)]
        })
        .collect()
}

/// Downsample a series to at most `width` points by bucket-averaging
/// (keeps the shape when traces are long).
pub fn downsample(values: &[f64], width: usize) -> Vec<f64> {
    assert!(width > 0, "width must be positive");
    if values.len() <= width {
        return values.to_vec();
    }
    let mut out = Vec::with_capacity(width);
    let chunk = values.len() as f64 / width as f64;
    for i in 0..width {
        let start = (i as f64 * chunk) as usize;
        let end = (((i + 1) as f64 * chunk) as usize)
            .min(values.len())
            .max(start + 1);
        let bucket = &values[start..end];
        out.push(bucket.iter().sum::<f64>() / bucket.len() as f64);
    }
    out
}

/// A labelled chart panel of one `(time, value)` trace.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel title (e.g. "analytics CPU %").
    pub title: String,
    /// The trace.
    pub trace: Vec<(SimTime, f64)>,
    /// Optional reference line (the controller setpoint).
    pub reference: Option<f64>,
}

impl Panel {
    /// Create a panel.
    pub fn new(title: impl Into<String>, trace: Vec<(SimTime, f64)>) -> Panel {
        Panel {
            title: title.into(),
            trace,
            reference: None,
        }
    }

    /// Attach a reference (setpoint) line.
    pub fn with_reference(mut self, reference: f64) -> Panel {
        self.reference = Some(reference);
        self
    }

    /// Render to a fixed character width: title, summary line, sparkline.
    pub fn render(&self, width: usize) -> String {
        let values: Vec<f64> = self.trace.iter().map(|&(_, v)| v).collect();
        if values.is_empty() {
            return format!("{}\n  (no data)\n", self.title);
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        #[expect(clippy::expect_used, reason = "invariant stated in the expect message")]
        let last = *values.last().expect("values verified non-empty above");
        let reference = self
            .reference
            .map(|r| format!("  setpoint={r:.1}"))
            .unwrap_or_default();
        let spark = sparkline(&downsample(&values, width));
        format!(
            "{}  [min={lo:.1} max={hi:.1} last={last:.1}{reference}]\n  {spark}\n",
            self.title
        )
    }
}

/// A multi-panel dashboard.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    panels: Vec<Panel>,
}

impl Dashboard {
    /// An empty dashboard.
    pub fn new() -> Dashboard {
        Dashboard::default()
    }

    /// Add a panel (builder style).
    pub fn panel(mut self, panel: Panel) -> Dashboard {
        self.panels.push(panel);
        self
    }

    /// Number of panels.
    pub fn len(&self) -> usize {
        self.panels.len()
    }

    /// Whether the dashboard has no panels.
    pub fn is_empty(&self) -> bool {
        self.panels.is_empty()
    }

    /// Render every panel at the given width.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        for p in &self.panels {
            out.push_str(&p.render(width));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(values: &[f64]) -> Vec<(SimTime, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (SimTime::from_secs(i as u64), v))
            .collect()
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s, "▁▂▃▄▅▆▇█");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▁▁▁");
        // Extremes map to extremes.
        let s2 = sparkline(&[10.0, 0.0, 10.0]);
        assert_eq!(s2.chars().next(), Some('█'));
        assert_eq!(s2.chars().nth(1), Some('▁'));
    }

    #[test]
    fn downsample_preserves_short_series() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(downsample(&v, 10), v);
    }

    #[test]
    fn downsample_buckets_long_series() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&v, 10);
        assert_eq!(d.len(), 10);
        // Monotone input stays monotone after bucket-averaging.
        assert!(d.windows(2).all(|w| w[0] < w[1]));
        // Overall mean is preserved for equal buckets.
        let mean_in = v.iter().sum::<f64>() / v.len() as f64;
        let mean_out = d.iter().sum::<f64>() / d.len() as f64;
        assert!((mean_in - mean_out).abs() < 1e-9);
    }

    #[test]
    fn panel_renders_summary_and_reference() {
        let p = Panel::new("cpu", trace(&[10.0, 50.0, 90.0])).with_reference(60.0);
        let r = p.render(40);
        assert!(r.contains("cpu"));
        assert!(r.contains("min=10.0"));
        assert!(r.contains("max=90.0"));
        assert!(r.contains("last=90.0"));
        assert!(r.contains("setpoint=60.0"));
        assert!(r.lines().count() == 2);
    }

    #[test]
    fn empty_panel_renders_no_data() {
        let p = Panel::new("empty", vec![]);
        assert!(p.render(40).contains("no data"));
    }

    #[test]
    fn dashboard_concatenates_panels() {
        let d = Dashboard::new()
            .panel(Panel::new("a", trace(&[1.0, 2.0])))
            .panel(Panel::new("b", trace(&[3.0, 4.0])));
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        let r = d.render(20);
        assert!(r.contains('a') && r.contains('b'));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_downsample_panics() {
        downsample(&[1.0], 0);
    }
}
