//! Problem-size presets.

use crate::filter::FilterSpec;
use crate::pipelines::PipelineError;

/// A downscaler problem instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Preset name.
    pub name: String,
    /// Colour channels (3 = RGB).
    pub channels: usize,
    /// Input frame rows.
    pub rows: usize,
    /// Input frame columns.
    pub cols: usize,
    /// Frames per run (the paper uses 300 iterations).
    pub frames: usize,
    /// Horizontal filter (along columns).
    pub h: FilterSpec,
    /// Vertical filter (along rows).
    pub v: FilterSpec,
}

impl Scenario {
    /// Build a scenario with the paper's 8→3 horizontal / 9→4 vertical
    /// interpolation. `rows` must be divisible by 9 and `cols` by 8;
    /// violations are typed [`PipelineError::Config`] errors, never panics,
    /// so registries and sweeps can enumerate candidate sizes safely.
    pub fn new(
        name: &str,
        channels: usize,
        rows: usize,
        cols: usize,
        frames: usize,
    ) -> Result<Self, PipelineError> {
        if !rows.is_multiple_of(9) {
            return Err(PipelineError::Config(format!(
                "scenario '{name}': rows {rows} must be divisible by 9 (9->4 vertical scaling)"
            )));
        }
        if !cols.is_multiple_of(8) {
            return Err(PipelineError::Config(format!(
                "scenario '{name}': cols {cols} must be divisible by 8 (8->3 horizontal scaling)"
            )));
        }
        Ok(Scenario {
            name: name.into(),
            channels,
            rows,
            cols,
            frames,
            h: FilterSpec::paper_horizontal(),
            v: FilterSpec::paper_vertical(),
        })
    }

    /// The paper's evaluation setting: 1080×1920 HD frames, RGB,
    /// 300 iterations (§VIII).
    pub fn hd1080() -> Self {
        Scenario::new("hd1080", 3, 1080, 1920, 300).expect("preset dimensions are valid")
    }

    /// CIF input (352×288) as in the case-study introduction (§III):
    /// 352 → 132 columns, 288 → 128 rows, 2000 frames of a 25 fps /
    /// 80 second clip.
    pub fn cif() -> Self {
        Scenario::new("cif", 3, 288, 352, 2000).expect("preset dimensions are valid")
    }

    /// A small but structurally faithful instance for tests.
    pub fn tiny() -> Self {
        Scenario::new("tiny", 3, 18, 32, 2).expect("preset dimensions are valid")
    }

    /// A single-channel micro instance for the fastest tests.
    pub fn micro() -> Self {
        Scenario::new("micro", 1, 9, 16, 1).expect("preset dimensions are valid")
    }

    /// Output columns of the horizontal filter.
    pub fn h_out_cols(&self) -> usize {
        self.cols / self.h.step * self.h.windows.len()
    }

    /// Horizontal repetition tiles per row.
    pub fn h_tiles(&self) -> usize {
        self.cols / self.h.step
    }

    /// Output rows of the vertical filter.
    pub fn v_out_rows(&self) -> usize {
        self.rows / self.v.step * self.v.windows.len()
    }

    /// Vertical repetition tiles per column.
    pub fn v_tiles(&self) -> usize {
        self.rows / self.v.step
    }

    /// Final output shape per channel: (rows, cols).
    pub fn out_shape(&self) -> (usize, usize) {
        (self.v_out_rows(), self.h_out_cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd_matches_paper_dimensions() {
        let s = Scenario::hd1080();
        assert_eq!(s.h_out_cols(), 720);
        assert_eq!(s.v_out_rows(), 480);
        assert_eq!(s.out_shape(), (480, 720)); // the DVD resolution of Figure 2
        assert_eq!(s.h_tiles(), 240);
        assert_eq!(s.v_tiles(), 120);
        assert_eq!(s.frames, 300);
    }

    #[test]
    fn cif_matches_section3() {
        let s = Scenario::cif();
        assert_eq!(s.h_out_cols(), 132);
        assert_eq!(s.v_out_rows(), 128);
    }

    #[test]
    fn tiny_is_consistent() {
        let s = Scenario::tiny();
        assert_eq!(s.h_out_cols(), 12);
        assert_eq!(s.v_out_rows(), 8);
    }

    #[test]
    fn rejects_bad_rows_as_typed_error() {
        let err = Scenario::new("bad", 1, 10, 16, 1);
        assert!(
            matches!(&err, Err(PipelineError::Config(m)) if m.contains("divisible by 9")),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_bad_cols_as_typed_error() {
        let err = Scenario::new("bad", 1, 9, 15, 1);
        assert!(
            matches!(&err, Err(PipelineError::Config(m)) if m.contains("divisible by 8")),
            "{err:?}"
        );
    }

    /// The ISSUE 8 regression shape: a 17×33 request — indivisible on both
    /// axes — is a typed configuration error, not a panic.
    #[test]
    fn arbitrary_bad_request_is_an_error_not_a_panic() {
        let err = Scenario::new("odd", 3, 17, 33, 1);
        assert!(matches!(err, Err(PipelineError::Config(_))), "{err:?}");
    }
}
