//! Reference CPU implementation — the golden model.
//!
//! Semantics follow the paper's tiler specifications exactly, including
//! ArrayOL's toroidal (modulo) addressing at frame edges:
//!
//! * horizontal (Figure 10): input pattern of 11 pixels every 8 columns,
//!   three 6-pixel windows at offsets {0, 2, 5} (Figure 5), output
//!   `t/6 - t%6`,
//! * vertical: input pattern of 13 rows every 9 rows, anchored 3 rows above
//!   the tile (origin −3), four 6-pixel windows at offsets {0, 2, 5, 7}.
//!
//! Each call reduces the toroidal addressing to a tap table once (one
//! `rem_euclid` per tap of one row or column, not per sample); the sample
//! loops then only index. The vertical filter sums whole source rows, and
//! the rank-3 reference ([`crate::pipelines::reference_downscale`]) reads a
//! frame's channel planes in place and writes one rank-3 result, with no
//! per-plane copies. The interpolation's `t/6 - t%6` stays one division per
//! output sample.

use mdarray::NdArray;

/// One directional filter: gathers `pattern` elements every `step`, emits
/// one output per window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Input pattern length.
    pub pattern: usize,
    /// Tiler origin along the filtered dimension (may be negative).
    pub origin: i64,
    /// Paving step along the filtered dimension.
    pub step: usize,
    /// Window offsets within the pattern (one output pixel per window).
    pub windows: Vec<usize>,
    /// Window length.
    pub window_len: usize,
    /// Interpolation divisor.
    pub divisor: i64,
}

impl FilterSpec {
    /// The paper's horizontal filter: 8 → 3, 11-pattern, windows {0,2,5}
    /// (exactly the index sets of Figure 5's `tmp0`/`tmp1`/`tmp2`), anchored
    /// one pixel left of the tile (origin −1). The anchor makes the first
    /// and last windows wrap at the frame edge, which is what splits the
    /// folded WITH-loop into the paper's five generators (Figure 8); see
    /// EXPERIMENTS.md for the origin-0 ablation (four generators).
    pub fn paper_horizontal() -> Self {
        FilterSpec {
            pattern: 11,
            origin: -1,
            step: 8,
            windows: vec![0, 2, 5],
            window_len: 6,
            divisor: 6,
        }
    }

    /// The paper's vertical filter: 9 → 4, 13-pattern centred one half-tile
    /// up (origin −3), windows {0,2,5,7}.
    pub fn paper_vertical() -> Self {
        FilterSpec {
            pattern: 13,
            origin: -3,
            step: 9,
            windows: vec![0, 2, 5, 7],
            window_len: 6,
            divisor: 6,
        }
    }

    /// Outputs per tile.
    pub fn outputs_per_tile(&self) -> usize {
        self.windows.len()
    }

    /// The paper's interpolation arithmetic on one window sum.
    #[inline]
    pub fn interpolate(&self, t: i64) -> i64 {
        t / self.divisor - t % self.divisor
    }
}

/// The toroidal tap table of one filter over an `extent`-long dimension:
/// for output `o` (tile `o / windows`, window `o % windows`), entries
/// `o * window_len .. (o + 1) * window_len` are the source indices the
/// window sums, already reduced modulo `extent`. Built once per call, so the
/// per-sample loops below index instead of dividing.
fn taps(spec: &FilterSpec, extent: usize) -> Vec<usize> {
    let tiles = extent / spec.step;
    let mut taps = Vec::with_capacity(tiles * spec.windows.len() * spec.window_len);
    for t in 0..tiles {
        let base = spec.origin + (t * spec.step) as i64;
        for &w in &spec.windows {
            taps.extend(
                (0..spec.window_len)
                    .map(|p| (base + (w + p) as i64).rem_euclid(extent as i64) as usize),
            );
        }
    }
    taps
}

/// The horizontal filter of one row-major plane of `cols` columns, appended
/// to `out` (`cols/step * windows` samples per row).
fn horizontal_plane(src: &[i64], cols: usize, spec: &FilterSpec, out: &mut Vec<i64>) {
    let taps = taps(spec, cols);
    let out_cols = (cols / spec.step) * spec.windows.len();
    for row in src.chunks_exact(cols.max(1)) {
        out.extend((0..out_cols).map(|o| {
            let window = &taps[o * spec.window_len..(o + 1) * spec.window_len];
            spec.interpolate(window.iter().map(|&c| row[c]).sum())
        }));
    }
}

/// The vertical filter of one row-major `rows × cols` plane, appended to
/// `out` (`rows/step * windows × cols` samples). Each output row sums whole
/// source rows element-wise, so the inner loop is a contiguous add.
fn vertical_plane(src: &[i64], rows: usize, cols: usize, spec: &FilterSpec, out: &mut Vec<i64>) {
    let taps = taps(spec, rows);
    let out_rows = (rows / spec.step) * spec.windows.len();
    let start = out.len();
    out.resize(start + out_rows * cols, 0);
    for (o, dst) in out[start..].chunks_exact_mut(cols.max(1)).enumerate() {
        for &r in &taps[o * spec.window_len..(o + 1) * spec.window_len] {
            for (d, &v) in dst.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
                *d += v;
            }
        }
        for d in dst.iter_mut() {
            *d = spec.interpolate(*d);
        }
    }
}

/// Apply a filter along the columns of a 2-D channel plane.
///
/// `[rows, cols]` → `[rows, cols/step * windows]`, toroidal addressing.
pub fn horizontal_filter(ch: &NdArray<i64>, spec: &FilterSpec) -> NdArray<i64> {
    let rows = ch.shape().dim(0);
    let cols = ch.shape().dim(1);
    let out_cols = (cols / spec.step) * spec.outputs_per_tile();
    let mut out = Vec::with_capacity(rows * out_cols);
    horizontal_plane(ch.as_slice(), cols, spec, &mut out);
    NdArray::from_vec([rows, out_cols], out).expect("length matches")
}

/// Apply a filter along the rows of a 2-D channel plane.
///
/// `[rows, cols]` → `[rows/step * windows, cols]`, toroidal addressing.
pub fn vertical_filter(ch: &NdArray<i64>, spec: &FilterSpec) -> NdArray<i64> {
    let rows = ch.shape().dim(0);
    let cols = ch.shape().dim(1);
    let out_rows = (rows / spec.step) * spec.outputs_per_tile();
    let mut out = Vec::with_capacity(out_rows * cols);
    vertical_plane(ch.as_slice(), rows, cols, spec, &mut out);
    NdArray::from_vec([out_rows, cols], out).expect("length matches")
}

/// Full per-channel downscale: horizontal then vertical.
pub fn downscale_channel(ch: &NdArray<i64>, h: &FilterSpec, v: &FilterSpec) -> NdArray<i64> {
    vertical_filter(&horizontal_filter(ch, h), v)
}

/// The horizontal filter `h`, then `v` when given, over every channel plane
/// of a rank-3 `[channels, rows, cols]` frame. Planes are read in place from
/// the frame and written straight into the one rank-3 result; only the
/// horizontal pass of one plane is staged between the two filters.
pub(crate) fn filter_frame(
    frame: &NdArray<i64>,
    h: &FilterSpec,
    v: Option<&FilterSpec>,
) -> NdArray<i64> {
    let &[channels, rows, cols] = frame.shape().dims() else {
        panic!("filter_frame: frame has shape {:?}, not [channels, rows, cols]", frame.shape())
    };
    let h_cols = (cols / h.step) * h.outputs_per_tile();
    let out_rows = v.map_or(rows, |v| (rows / v.step) * v.outputs_per_tile());
    let mut out = Vec::with_capacity(channels * out_rows * h_cols);
    let mut staged = Vec::with_capacity(if v.is_some() { rows * h_cols } else { 0 });
    for plane in frame.as_slice().chunks_exact((rows * cols).max(1)) {
        match v {
            None => horizontal_plane(plane, cols, h, &mut out),
            Some(v) => {
                staged.clear();
                horizontal_plane(plane, cols, h, &mut staged);
                vertical_plane(&staged, rows, h_cols, v, &mut out);
            }
        }
    }
    NdArray::from_vec([channels, out_rows, h_cols], out).expect("length matches")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn horizontal_shapes_follow_spec() {
        let s = Scenario::tiny();
        let ch = NdArray::filled([s.rows, s.cols], 6i64);
        let out = horizontal_filter(&ch, &s.h);
        assert_eq!(out.shape().dims(), &[s.rows, s.h_out_cols()]);
        // Constant input of value 6: window sum 36 -> 36/6 - 0 = 6.
        assert!(out.as_slice().iter().all(|&v| v == 6));
    }

    #[test]
    fn vertical_shapes_follow_spec() {
        let s = Scenario::tiny();
        let ch = NdArray::filled([s.rows, s.h_out_cols()], 12i64);
        let out = vertical_filter(&ch, &s.v);
        assert_eq!(out.shape().dims(), &[s.v_out_rows(), s.h_out_cols()]);
        assert!(out.as_slice().iter().all(|&v| v == 12));
    }

    #[test]
    fn interpolation_matches_figure5_arithmetic() {
        // Tile 0 windows {0,2,5} sum 6 consecutive pixels starting at
        // origin + offset; expectations computed from the spec itself.
        let cols = 16usize;
        let ch = NdArray::from_fn([1usize, cols], |ix| (ix[1] * ix[1] % 97) as i64);
        let spec = FilterSpec::paper_horizontal();
        let out = horizontal_filter(&ch, &spec);
        for (k, &w) in spec.windows.iter().enumerate() {
            let t: i64 = (0..spec.window_len)
                .map(|p| {
                    let c = (spec.origin + (w + p) as i64).rem_euclid(cols as i64) as usize;
                    ch.as_slice()[c]
                })
                .sum();
            assert_eq!(out.as_slice()[k], t / 6 - t % 6, "window {k}");
        }
    }

    #[test]
    fn horizontal_wraps_toroidally() {
        // Origin -1 makes tile 0's first window read column -1 -> cols-1;
        // the last tile's last window runs past the right edge.
        let cols = 16usize;
        let ch = NdArray::from_fn([1usize, cols], |ix| if ix[1] >= 12 { 600 } else { 0 });
        let spec = FilterSpec::paper_horizontal();
        let out = horizontal_filter(&ch, &spec);
        // Tile 0, window 0: columns -1..5 -> wraps once to column 15.
        assert_eq!(out.as_slice()[0], spec.interpolate(600));
        // Tile 1, window 2 (offset 5): base 7, columns 12..18 -> 12,13,14,15
        // hit, 16,17 wrap to 0,1 (zeros).
        assert_eq!(out.as_slice()[5], spec.interpolate(4 * 600));
    }

    #[test]
    fn vertical_negative_origin_wraps() {
        // Tile 0 reads rows -3..10; rows -3,-2,-1 wrap to 6,7,8 (rows=9).
        let ch = NdArray::from_fn([9usize, 1], |ix| 10i64.pow(ix[0] as u32 % 9) % 1000);
        let spec = FilterSpec::paper_vertical();
        let out = vertical_filter(&ch, &spec);
        // First output row sums rows (-3..3) mod 9 = {6,7,8,0,1,2}.
        let s: i64 = [6, 7, 8, 0, 1, 2].iter().map(|&r| 10i64.pow(r as u32 % 9) % 1000).sum();
        assert_eq!(out.as_slice()[0], spec.interpolate(s));
    }

    #[test]
    fn downscale_channel_composes() {
        let s = Scenario::tiny();
        let ch = NdArray::from_fn([s.rows, s.cols], |ix| ((ix[0] * 31 + ix[1] * 7) % 256) as i64);
        let out = downscale_channel(&ch, &s.h, &s.v);
        let (orows, ocols) = s.out_shape();
        assert_eq!(out.shape().dims(), &[orows, ocols]);
        // Spot-check one pixel against a hand computation.
        let hout = horizontal_filter(&ch, &s.h);
        let vout = vertical_filter(&hout, &s.v);
        assert_eq!(out, vout);
    }

    #[test]
    fn hd_dimensions_produce_dvd_output() {
        // Shape-only check at full scale (no content sweep).
        let s = Scenario::hd1080();
        let ch = NdArray::filled([s.rows, s.cols], 0i64);
        let h = horizontal_filter(&ch, &s.h);
        assert_eq!(h.shape().dims(), &[1080, 720]);
        let v = vertical_filter(&h, &s.v);
        assert_eq!(v.shape().dims(), &[480, 720]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::frames::FrameGenerator;
    use proptest::prelude::*;

    /// The per-tap `rem_euclid` horizontal filter the tap tables replaced,
    /// kept as the differential oracle.
    fn horizontal_oracle(ch: &NdArray<i64>, spec: &FilterSpec) -> NdArray<i64> {
        let rows = ch.shape().dim(0);
        let cols = ch.shape().dim(1);
        let tiles = cols / spec.step;
        let out_cols = tiles * spec.outputs_per_tile();
        let src = ch.as_slice();
        let mut out = Vec::with_capacity(rows * out_cols);
        for i in 0..rows {
            let row = &src[i * cols..(i + 1) * cols];
            for t in 0..tiles {
                let base = spec.origin + (t * spec.step) as i64;
                for &w in &spec.windows {
                    let mut sum = 0i64;
                    for p in 0..spec.window_len {
                        let c = (base + (w + p) as i64).rem_euclid(cols as i64) as usize;
                        sum += row[c];
                    }
                    out.push(spec.interpolate(sum));
                }
            }
        }
        NdArray::from_vec([rows, out_cols], out).expect("length matches")
    }

    /// The per-tap `rem_euclid` vertical filter, kept as the oracle.
    fn vertical_oracle(ch: &NdArray<i64>, spec: &FilterSpec) -> NdArray<i64> {
        let rows = ch.shape().dim(0);
        let cols = ch.shape().dim(1);
        let tiles = rows / spec.step;
        let k = spec.outputs_per_tile();
        let out_rows = tiles * k;
        let src = ch.as_slice();
        let mut out = vec![0i64; out_rows * cols];
        for t in 0..tiles {
            let base = spec.origin + (t * spec.step) as i64;
            for (ki, &w) in spec.windows.iter().enumerate() {
                let orow = t * k + ki;
                for j in 0..cols {
                    let mut sum = 0i64;
                    for p in 0..spec.window_len {
                        let r = (base + (w + p) as i64).rem_euclid(rows as i64) as usize;
                        sum += src[r * cols + j];
                    }
                    out[orow * cols + j] = spec.interpolate(sum);
                }
            }
        }
        NdArray::from_vec([out_rows, cols], out).expect("length matches")
    }

    /// A random filter whose windows may start left of the frame and run
    /// past its far edge more than once at these small extents.
    fn spec_of((origin, step, windows, (window_len, divisor)): FilterDraw) -> FilterSpec {
        FilterSpec { pattern: 0, origin, step, windows, window_len, divisor }
    }

    type FilterDraw = (i64, usize, Vec<usize>, (usize, i64));

    fn filter_draw() -> impl Strategy<Value = FilterDraw> {
        (-40i64..8, 1usize..5, collection::vec(0usize..24, 0..4), (0usize..30, 1i64..9))
    }

    proptest! {
        /// The tap-table filters and the in-place rank-3 reference are
        /// bit-identical to the per-tap oracles, on random filters and
        /// random small planes of any content sign.
        #[test]
        fn tap_tables_match_the_per_tap_oracle(
            dims in (1usize..4, 1usize..13, 1usize..13),
            h in filter_draw(),
            v in filter_draw(),
            data in collection::vec(-1000i64..1000, 3 * 12 * 12),
        ) {
            let (channels, rows, cols) = dims;
            let (h, v) = (spec_of(h), spec_of(v));
            let frame = NdArray::from_vec(
                [channels, rows, cols],
                data[..channels * rows * cols].to_vec(),
            )
            .unwrap();
            let planes = FrameGenerator::unstack(&frame);
            let mut h_planes = Vec::new();
            let mut hv_planes = Vec::new();
            for ch in &planes {
                let hp = horizontal_oracle(ch, &h);
                prop_assert_eq!(&horizontal_filter(ch, &h), &hp);
                prop_assert_eq!(&vertical_filter(ch, &v), &vertical_oracle(ch, &v));
                hv_planes.push(vertical_oracle(&hp, &v));
                h_planes.push(hp);
            }
            prop_assert_eq!(filter_frame(&frame, &h, None), FrameGenerator::stack(&h_planes));
            prop_assert_eq!(
                filter_frame(&frame, &h, Some(&v)),
                FrameGenerator::stack(&hv_planes)
            );
        }

        /// A constant frame downscales to the same constant: every window sum
        /// is `6c`, and `6c/6 - 6c%6 = c`. Holds for both filters at any
        /// valid size, which pins the interpolation normalisation.
        #[test]
        fn constant_frames_are_fixed_points(
            c in 0i64..=255,
            rt in 1usize..4,
            ct in 1usize..4,
        ) {
            let rows = 9 * rt;
            let cols = 8 * ct;
            let ch = NdArray::filled([rows, cols], c);
            let h = horizontal_filter(&ch, &FilterSpec::paper_horizontal());
            prop_assert!(h.as_slice().iter().all(|&v| v == c));
            let v = vertical_filter(&h, &FilterSpec::paper_vertical());
            prop_assert!(v.as_slice().iter().all(|&v| v == c));
        }

        /// Output shapes follow the 8→3 / 9→4 ratios for any multiple sizes.
        #[test]
        fn output_shapes(rt in 1usize..6, ct in 1usize..6) {
            let rows = 9 * rt;
            let cols = 8 * ct;
            let ch = NdArray::filled([rows, cols], 1i64);
            let out = downscale_channel(
                &ch,
                &FilterSpec::paper_horizontal(),
                &FilterSpec::paper_vertical(),
            );
            prop_assert_eq!(out.shape().dims(), &[4 * rt, 3 * ct]);
        }
    }
}
