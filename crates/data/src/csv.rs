//! Minimal CSV IO so the real UCI datasets can be used when available.
//!
//! The format is deliberately simple: one point per line, numeric columns
//! separated by commas (or a custom separator), optional header line.
//! Non-numeric columns are not supported — preprocess the raw UCI files by
//! dropping symbolic attributes, as the paper does for Intrusion.

use crate::dataset::Dataset;
use skm_clustering::error::{ClusteringError, Result};
use skm_clustering::PointBlock;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Options for [`load_points`].
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Whether the first line is a header and should be skipped.
    pub has_header: bool,
    /// Column separator.
    pub separator: char,
    /// Optional cap on the number of points to read.
    pub limit: Option<usize>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            has_header: false,
            separator: ',',
            limit: None,
        }
    }
}

/// Parses points from CSV text (used by [`load_points`] and directly in
/// tests).
///
/// # Errors
/// Returns an error when a row is non-numeric or has an inconsistent number
/// of columns.
pub fn parse_points(text: &str, options: CsvOptions) -> Result<PointBlock> {
    let mut points: Option<PointBlock> = None;
    let mut rows = 0usize;
    for (line_no, line) in text.lines().enumerate() {
        if line_no == 0 && options.has_header {
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(limit) = options.limit {
            if rows >= limit {
                break;
            }
        }
        let values: std::result::Result<Vec<f64>, _> = trimmed
            .split(options.separator)
            .map(|v| v.trim().parse::<f64>())
            .collect();
        let values = values.map_err(|e| ClusteringError::InvalidParameter {
            name: "csv",
            message: format!("line {}: {e}", line_no + 1),
        })?;
        if values.is_empty() {
            continue;
        }
        let set = match &mut points {
            Some(s) => s,
            None => points.insert(PointBlock::new(values.len())),
        };
        set.try_push(&values, 1.0)?;
        rows += 1;
    }
    points.ok_or(ClusteringError::EmptyInput)
}

/// Loads a CSV file of numeric rows into a [`Dataset`] named after the file
/// stem.
///
/// # Errors
/// Returns an error when the file cannot be read or parsed.
pub fn load_points(path: &Path, options: CsvOptions) -> Result<Dataset> {
    let file = File::open(path).map_err(|e| ClusteringError::InvalidParameter {
        name: "path",
        message: format!("cannot open {}: {e}", path.display()),
    })?;
    let mut reader = BufReader::new(file);
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| ClusteringError::InvalidParameter {
            name: "path",
            message: format!("cannot read {}: {e}", path.display()),
        })?;
    let points = parse_points(&text, options)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("csv")
        .to_string();
    Ok(Dataset::new(name, points))
}

/// Writes a dataset as CSV (no header, unit weights are not written).
///
/// # Errors
/// Returns an error when the file cannot be written.
pub fn save_points(path: &Path, dataset: &Dataset) -> Result<()> {
    let file = File::create(path).map_err(|e| ClusteringError::InvalidParameter {
        name: "path",
        message: format!("cannot create {}: {e}", path.display()),
    })?;
    let mut writer = BufWriter::new(file);
    let mut line = String::new();
    for p in dataset.stream() {
        line.clear();
        for (i, v) in p.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{v}"));
        }
        line.push('\n');
        writer
            .write_all(line.as_bytes())
            .map_err(|e| ClusteringError::InvalidParameter {
                name: "path",
                message: format!("write failed: {e}"),
            })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_csv() {
        let text = "1.0,2.0,3.0\n4.0,5.0,6.0\n";
        let points = parse_points(text, CsvOptions::default()).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points.dim(), 3);
        assert_eq!(points.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn header_and_blank_lines_are_skipped() {
        let text = "a,b\n\n1.0,2.0\n\n3.0,4.0\n";
        let points = parse_points(
            text,
            CsvOptions {
                has_header: true,
                ..CsvOptions::default()
            },
        )
        .unwrap();
        assert_eq!(points.len(), 2);
    }

    #[test]
    fn limit_caps_rows() {
        let text = "1\n2\n3\n4\n";
        let points = parse_points(
            text,
            CsvOptions {
                limit: Some(2),
                ..CsvOptions::default()
            },
        )
        .unwrap();
        assert_eq!(points.len(), 2);
    }

    #[test]
    fn custom_separator() {
        let text = "1.0;2.0\n3.0;4.0\n";
        let points = parse_points(
            text,
            CsvOptions {
                separator: ';',
                ..CsvOptions::default()
            },
        )
        .unwrap();
        assert_eq!(points.dim(), 2);
    }

    #[test]
    fn bad_rows_are_errors() {
        assert!(parse_points("1.0,abc\n", CsvOptions::default()).is_err());
        assert!(parse_points("1.0,2.0\n3.0\n", CsvOptions::default()).is_err());
        assert!(parse_points("", CsvOptions::default()).is_err());
    }

    #[test]
    fn save_and_load_round_trip() {
        let mut points = PointBlock::new(2);
        points.push(&[1.5, -2.25], 1.0);
        points.push(&[0.0, 42.0], 1.0);
        let dataset = Dataset::new("roundtrip", points);
        let dir = std::env::temp_dir();
        let path = dir.join("skm_data_csv_roundtrip_test.csv");
        save_points(&path, &dataset).unwrap();
        let loaded = load_points(&path, CsvOptions::default()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.points().point(0), &[1.5, -2.25]);
        assert_eq!(loaded.points().point(1), &[0.0, 42.0]);
        let _ = std::fs::remove_file(&path);
    }
}
