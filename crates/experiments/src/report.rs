//! Result containers and rendering (aligned text tables and CSV).

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One data point of a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// X coordinate (number of clusters, message size in bytes, ...).
    pub x: f64,
    /// Y coordinate (completion time in seconds, hit count, ...).
    pub y: f64,
}

/// A labelled series (one curve of a figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (heuristic name).
    pub label: String,
    /// Points in ascending `x` order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates a series from `(x, y)` pairs.
    pub fn new(label: impl Into<String>, points: impl IntoIterator<Item = (f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points: points
                .into_iter()
                .map(|(x, y)| SeriesPoint { x, y })
                .collect(),
        }
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }

    /// Mean of the y values.
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.y).sum::<f64>() / self.points.len() as f64
    }
}

/// A reproduced figure or table: a set of series over a common x axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureResult {
    /// Title, e.g. "Figure 1: 1 MB broadcast, 2-10 clusters".
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// The series (curves).
    pub series: Vec<Series>,
}

impl FigureResult {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureResult {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// A series by label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// The sorted, deduplicated x values across all series.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Renders the figure as an aligned text table: one row per x value, one
    /// column per series — the same rows the paper's plots are drawn from.
    /// Each column is as wide as its widest cell, and two spaces separate
    /// neighbouring columns.
    pub fn to_ascii_table(&self) -> String {
        let mut rows = vec![std::iter::once(&self.x_label)
            .chain(self.series.iter().map(|s| &s.label))
            .cloned()
            .collect::<Vec<String>>()];
        for x in self.x_values() {
            let mut row = vec![format!("{x:.3}")];
            row.extend(self.series.iter().map(|s| match s.y_at(x) {
                Some(y) => format!("{y:.4}"),
                None => "-".to_owned(),
            }));
            rows.push(row);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "# y: {}", self.y_label);
        for row in &rows {
            for (c, (cell, &width)) in row.iter().zip(&widths).enumerate() {
                let gap = if c == 0 { "" } else { "  " };
                let _ = write!(out, "{gap}{cell:>width$}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders the figure as CSV (`x,label1,label2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label.replace(',', ";"));
        for s in &self.series {
            let _ = write!(out, ",{}", s.label.replace(',', ";"));
        }
        let _ = writeln!(out);
        for x in self.x_values() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> FigureResult {
        let mut fig = FigureResult::new("Test figure", "clusters", "completion (s)");
        fig.push(Series::new("Flat Tree", vec![(2.0, 1.0), (4.0, 2.0)]));
        fig.push(Series::new("ECEF", vec![(2.0, 0.9), (4.0, 1.1)]));
        fig
    }

    #[test]
    fn ascii_table_contains_all_series_and_rows() {
        let fig = sample_figure();
        let table = fig.to_ascii_table();
        assert!(table.contains("Test figure"));
        assert!(table.contains("Flat Tree"));
        assert!(table.contains("ECEF"));
        // Two x rows.
        assert_eq!(table.lines().count(), 3 + 2);
        assert!(table.contains("2.000"));
        assert!(table.contains("1.1000"));
    }

    #[test]
    fn wide_cells_widen_their_column_and_never_touch_a_neighbour() {
        let mut fig = FigureResult::new("Wide", "transfers (T)", "work");
        fig.push(Series::new(
            "Heap pops (lazy invalidation)",
            vec![(22350.0, 2840726.0)],
        ));
        fig.push(Series::new(
            "Oracle scans (T(T+1)/2)",
            vec![(22350.0, 249772425.0)],
        ));
        let table = fig.to_ascii_table();
        let lines: Vec<&str> = table.lines().skip(2).collect();
        assert_eq!(
            lines[0],
            "transfers (T)  Heap pops (lazy invalidation)  Oracle scans (T(T+1)/2)"
        );
        assert_eq!(
            lines[1].split_whitespace().collect::<Vec<_>>(),
            ["22350.000", "2840726.0000", "249772425.0000"]
        );
        // Right-aligned columns: every row ends at the same column.
        assert_eq!(lines[0].chars().count(), lines[1].chars().count());
    }

    #[test]
    fn csv_round_trips_the_points() {
        let fig = sample_figure();
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "clusters,Flat Tree,ECEF");
        assert_eq!(lines[1], "2,1,0.9");
        assert_eq!(lines[2], "4,2,1.1");
    }

    #[test]
    fn series_lookup_helpers() {
        let fig = sample_figure();
        assert_eq!(fig.x_values(), vec![2.0, 4.0]);
        let ecef = fig.series_by_label("ECEF").unwrap();
        assert_eq!(ecef.y_at(4.0), Some(1.1));
        assert_eq!(ecef.y_at(3.0), None);
        assert!((ecef.mean_y() - 1.0).abs() < 1e-9);
        assert!(fig.series_by_label("missing").is_none());
    }

    #[test]
    fn missing_points_render_as_dashes_and_empty_cells() {
        let mut fig = FigureResult::new("Partial", "x", "y");
        fig.push(Series::new("a", vec![(1.0, 1.0)]));
        fig.push(Series::new("b", vec![(2.0, 2.0)]));
        let table = fig.to_ascii_table();
        assert!(table.contains('-'));
        let csv = fig.to_csv();
        assert!(csv.lines().any(|l| l.ends_with(',')));
        let empty = Series::new("empty", Vec::<(f64, f64)>::new());
        assert_eq!(empty.mean_y(), 0.0);
    }
}
