//! Synthetic frame I/O.
//!
//! The paper's GASPARD2 model reads frames "from a video file or camera
//! using the OpenCV library" and writes them "out to a file or display
//! device". Neither is available (or useful) here, so the substitution
//! documented in DESIGN.md applies: a deterministic synthetic generator that
//! produces video-like content (smooth gradients plus a moving block, per
//! channel), and a sink that checksums frames (optionally rendering PPM).
//!
//! The generator fills each channel plane row by row straight into the
//! array's storage. Everything that does not depend on the column (the
//! moving block's position, the texture hash's frame/channel/row prefix and
//! the row's gradient term) is computed once per plane or row, so a pixel
//! costs one multiply-shift hash and no division by the frame size.

use mdarray::{ops::checksum, NdArray};

/// Deterministic synthetic video source.
///
/// Pixel values are 8-bit (0..=255) like the paper's 24-bit RGB frames.
#[derive(Debug, Clone)]
pub struct FrameGenerator {
    channels: usize,
    rows: usize,
    cols: usize,
    seed: u64,
}

impl FrameGenerator {
    /// A generator for `channels` planes of `rows × cols` pixels.
    pub fn new(channels: usize, rows: usize, cols: usize, seed: u64) -> Self {
        FrameGenerator { channels, rows, cols, seed }
    }

    /// Append channel `c` of frame `frame` to `out`, row by row: a smooth
    /// gradient, a moving bright block (the "signal") and a little
    /// deterministic texture.
    fn fill_plane(&self, frame: usize, c: usize, out: &mut Vec<i64>) {
        // An empty plane has no pixels, and the block position below would
        // divide by zero.
        if self.rows == 0 || self.cols == 0 {
            return;
        }
        let bi = (frame * 7 + c * 13) % self.rows;
        let bj = (frame * 11) % self.cols;
        let plane_hash = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((frame as u64) << 40)
            .wrapping_add((c as u64) << 32);
        for i in 0..self.rows {
            let row_hash = plane_hash.wrapping_add((i as u64) << 16);
            let row_grad = i * 2 + c * 85;
            let block_row = i.abs_diff(bi) < 8;
            out.extend((0..self.cols).map(|j| {
                let h = row_hash.wrapping_add(j as u64);
                let noise = ((h.wrapping_mul(0xbf58476d1ce4e5b9) >> 56) % 16) as i64;
                if block_row && j.abs_diff(bj) < 8 {
                    255 - noise
                } else {
                    (((row_grad + j * 3) % 256) as i64 + noise).min(255)
                }
            }));
        }
    }

    /// Produce frame `index` as separate channel planes.
    pub fn frame_channels(&self, index: usize) -> Vec<NdArray<i64>> {
        (0..self.channels)
            .map(|c| {
                let mut plane = Vec::with_capacity(self.rows * self.cols);
                self.fill_plane(index, c, &mut plane);
                NdArray::from_vec([self.rows, self.cols], plane).expect("length matches")
            })
            .collect()
    }

    /// Produce frame `index` as one rank-3 `[channels, rows, cols]` array
    /// (the layout the SaC programs use).
    pub fn frame_rank3(&self, index: usize) -> NdArray<i64> {
        let mut data = Vec::with_capacity(self.channels * self.rows * self.cols);
        for c in 0..self.channels {
            self.fill_plane(index, c, &mut data);
        }
        NdArray::from_vec([self.channels, self.rows, self.cols], data).expect("length matches")
    }

    /// Stack channel planes into a rank-3 array.
    pub fn stack(channels: &[NdArray<i64>]) -> NdArray<i64> {
        let c = channels.len();
        let rows = channels[0].shape().dim(0);
        let cols = channels[0].shape().dim(1);
        let mut data = Vec::with_capacity(c * rows * cols);
        for ch in channels {
            assert_eq!(ch.shape().dims(), &[rows, cols], "ragged channel planes");
            data.extend_from_slice(ch.as_slice());
        }
        NdArray::from_vec([c, rows, cols], data).expect("length matches")
    }

    /// Split a rank-3 array back into channel planes.
    pub fn unstack(frame: &NdArray<i64>) -> Vec<NdArray<i64>> {
        let c = frame.shape().dim(0);
        (0..c).map(|ch| frame.subarray(&[ch]).expect("in range")).collect()
    }
}

/// Frame sink: accumulates a rolling checksum (and counts frames) in place
/// of writing to a display; can render a channel plane as ASCII PPM.
#[derive(Debug, Clone, Default)]
pub struct FrameSink {
    /// Frames consumed.
    pub frames: usize,
    /// Rolling checksum over all consumed frames.
    pub digest: u64,
}

impl FrameSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one frame (any number of channel planes).
    pub fn consume(&mut self, channels: &[NdArray<i64>]) {
        for ch in channels {
            self.digest =
                self.digest.rotate_left(13).wrapping_add(checksum(ch)).wrapping_mul(0x100000001b3);
        }
        self.frames += 1;
    }

    /// Render one channel plane as a plain-text PGM image (for eyeballing).
    pub fn to_pgm(ch: &NdArray<i64>) -> String {
        let rows = ch.shape().dim(0);
        let cols = ch.shape().dim(1);
        let mut out = format!("P2\n{cols} {rows}\n255\n");
        for i in 0..rows {
            let row: Vec<String> =
                (0..cols).map(|j| ch.get(&[i, j]).unwrap().clamp(&0, &255).to_string()).collect();
            out.push_str(&row.join(" "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// The per-pixel generator the row fill replaced, kept as the
    /// differential oracle.
    fn pixel_oracle(g: &FrameGenerator, frame: usize, c: usize, i: usize, j: usize) -> i64 {
        let grad = (i * 2 + j * 3 + c * 85) % 256;
        let bi = (frame * 7 + c * 13) % g.rows;
        let bj = (frame * 11) % g.cols;
        let in_block = i.abs_diff(bi) < 8 && j.abs_diff(bj) < 8;
        let h = g
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((frame as u64) << 40)
            .wrapping_add((c as u64) << 32)
            .wrapping_add((i as u64) << 16)
            .wrapping_add(j as u64);
        let noise = (h.wrapping_mul(0xbf58476d1ce4e5b9) >> 56) % 16;
        let v = if in_block { 255 - noise as i64 } else { (grad as i64 + noise as i64).min(255) };
        v.clamp(0, 255)
    }

    #[test]
    fn row_fill_matches_the_per_pixel_oracle() {
        for s in [Scenario::tiny(), Scenario::cif(), Scenario::hd1080()] {
            for seed in [0, 42, u64::MAX] {
                let g = FrameGenerator::new(s.channels, s.rows, s.cols, seed);
                for frame in [0, 1, 299] {
                    let want = NdArray::from_fn([s.channels, s.rows, s.cols], |ix| {
                        pixel_oracle(&g, frame, ix[0], ix[1], ix[2])
                    });
                    let at = format!("{} seed {seed} frame {frame}", s.name);
                    assert!(g.frame_rank3(frame) == want, "frame_rank3 differs: {at}");
                    assert!(
                        g.frame_channels(frame) == FrameGenerator::unstack(&want),
                        "frame_channels differs: {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn frames_are_deterministic() {
        let g1 = FrameGenerator::new(3, 18, 32, 42);
        let g2 = FrameGenerator::new(3, 18, 32, 42);
        assert_eq!(g1.frame_channels(5), g2.frame_channels(5));
        let g3 = FrameGenerator::new(3, 18, 32, 43);
        assert_ne!(g1.frame_channels(5), g3.frame_channels(5));
    }

    #[test]
    fn frames_vary_over_time_and_channel() {
        let g = FrameGenerator::new(3, 18, 32, 7);
        assert_ne!(g.frame_channels(0), g.frame_channels(1));
        let f = g.frame_channels(0);
        assert_ne!(f[0], f[1]);
    }

    #[test]
    fn pixel_range_is_8bit() {
        let g = FrameGenerator::new(1, 27, 40, 9);
        for ch in g.frame_channels(3) {
            assert!(ch.as_slice().iter().all(|&v| (0..=255).contains(&v)));
        }
    }

    #[test]
    fn stack_unstack_roundtrip() {
        let g = FrameGenerator::new(3, 9, 16, 1);
        let planes = g.frame_channels(0);
        let stacked = FrameGenerator::stack(&planes);
        assert_eq!(stacked.shape().dims(), &[3, 9, 16]);
        assert_eq!(stacked, g.frame_rank3(0));
        assert_eq!(FrameGenerator::unstack(&stacked), planes);
    }

    #[test]
    fn sink_checksums_depend_on_content_and_order() {
        let g = FrameGenerator::new(1, 9, 16, 1);
        let a = g.frame_channels(0);
        let b = g.frame_channels(1);
        let mut s1 = FrameSink::new();
        s1.consume(&a);
        s1.consume(&b);
        let mut s2 = FrameSink::new();
        s2.consume(&b);
        s2.consume(&a);
        assert_eq!(s1.frames, 2);
        assert_ne!(s1.digest, s2.digest);
    }

    #[test]
    fn pgm_rendering() {
        let ch = NdArray::from_fn([2usize, 3], |ix| (ix[0] * 3 + ix[1]) as i64 * 40);
        let pgm = FrameSink::to_pgm(&ch);
        assert!(pgm.starts_with("P2\n3 2\n255\n"));
        assert!(pgm.contains("0 40 80"));
    }
}
