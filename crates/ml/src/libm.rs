//! The crate's own `expf` and `logf`, so that training computes the
//! same bits on every host: ports of glibc's FMA variants of the two
//! (`__expf_fma`, `__logf_fma`), which are ARM's optimized-routines
//! `expf`/`logf` as glibc ≥ 2.28 ships them, built with every `a·b + c`
//! the compiler could contract made one `fma`. Each port repeats that
//! build operation for operation in `f64`, with [`f64::mul_add`] where
//! it has an `fma` — correctly rounded on every host, in hardware or
//! not — so each equals glibc's result on every one of the 2³² inputs,
//! a NaN wherever glibc's is one (`exhaustive` in the tests below,
//! against digests of glibc 2.36's).
//!
//! Each function is a *main path*, straight-line code over any input,
//! and a *slow path* for the inputs the main path does not cover, taken
//! exactly where glibc takes it. The lane functions ([`exp_lanes`],
//! [`ln_lanes`]) run the main path over `L` lanes at once — the
//! kernel's vector instantiations pick `L` ([`crate::kernel`]) — and
//! then give each lane outside it to the scalar function, so a lane's
//! result never depends on its neighbours.

use crate::kernel::{Kernel, Op};

/// `2^(i/32)` as `f64` bits, less `i << 47`: adding `k << 47` for the
/// integer part `k` of the scaled exponent gives the bits of
/// `2^(k/32 + i/32)` (glibc's `__exp2f_data.tab`).
const EXP_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32 / ln 2` (0x1.71547652b82fep+5).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it rounds to an integer, left in the low bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for `2^(r/32)`, highest degree first, scaled by `32⁻ⁿ`.
const EXP_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `ln(2¹²⁸)`, rounded down: above it `expf` overflows.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `ln(2⁻¹⁵⁰)`, rounded: below it `expf` is `+0.0`.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `ln(2⁻¹⁴⁹)`, rounded: below it `expf` is the least subnormal.
const EXP_MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// `1/c` and `ln c` for sixteen `c` spread over `[0x1.66p-1, 0x1.66p+0)`
/// (glibc's `__logf_data.tab`, whose pairs are split here into two
/// tables: one lookup in each vectorises as a gather, a lookup of a
/// pair as sixteen scalar loads).
const LOG_INVC: [f64; 16] = table([
    0x3ff661ec79f8f3be,
    0x3ff571ed4aaf883d,
    0x3ff49539f0f010b0,
    0x3ff3c995b0b80385,
    0x3ff30d190c8864a5,
    0x3ff25e227b0b8ea0,
    0x3ff1bb4a4a1a343f,
    0x3ff12358f08ae5ba,
    0x3ff0953f419900a7,
    0x3ff0000000000000,
    0x3fee608cfd9a47ac,
    0x3feca4b31f026aa0,
    0x3feb2036576afce6,
    0x3fe9c2d163a1aa2d,
    0x3fe886e6037841ed,
    0x3fe767dcf5534862,
]);
/// See [`LOG_INVC`].
const LOG_LOGC: [f64; 16] = table([
    0xbfd57bf7808caade,
    0xbfd2bef0a7c06ddb,
    0xbfd01eae7f513a67,
    0xbfcb31d8a68224e9,
    0xbfc6574f0ac07758,
    0xbfc1aa2bc79c8100,
    0xbfba4e76ce8c0e5e,
    0xbfb1973c5a611ccc,
    0xbfa252f438e10c1e,
    0x0000000000000000,
    0x3faaa5aa5df25984,
    0x3fbc5e53aa362eb4,
    0x3fc526e57720db08,
    0x3fcbc2860d224770,
    0x3fd1058bc8a07ee1,
    0x3fd4043057b6ee09,
]);

/// Sixteen `f64`s from their bits.
const fn table(bits: [u64; 16]) -> [f64; 16] {
    let mut table = [0.0; 16];
    let mut i = 0;
    while i < 16 {
        table[i] = f64::from_bits(bits[i]);
        i += 1;
    }
    table
}
/// `ln 2` (0x1.62e42fefa39efp-1).
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// The cubic for `ln(1 + r) − r`, over `r²`: `A₀r² + A₁r + A₂`.
const LOG_POLY: [f64; 3] = [
    f64::from_bits(0xbfd0_0ea3_48b8_8334),
    f64::from_bits(0x3fd5_575b_0be0_0b6a),
    f64::from_bits(0xbfdf_fffe_f20a_4123),
];
/// The bits of `0x1.66p-1`: the reduced argument's range, and the table's
/// intervals, start here.
const LOG_OFF: u32 = 0x3f33_0000;

/// `eˣ`, as glibc's `__expf_fma` computes it.
#[inline]
pub(crate) fn expf(x: f32) -> f32 {
    if exp_is_slow(x) {
        if let Some(y) = exp_slow(x) {
            return y;
        }
    }
    exp_main(x)
}

/// `ln x`, as glibc's `__logf_fma` computes it.
#[inline]
pub(crate) fn logf(x: f32) -> f32 {
    let ix = x.to_bits();
    if ln_is_slow(ix) {
        return match ln_slow(x) {
            Ok(y) => y,
            Err(normalised) => ln_main(normalised),
        };
    }
    ln_main(ix)
}

/// `v = eᵛ`, element by element, in `kernel`'s lanes.
pub(crate) fn exp_in_place(kernel: Kernel, v: &mut [f32]) {
    kernel.run(InPlace { v, ln: false });
}

/// `v = ln v`, element by element, in `kernel`'s lanes: the lane path
/// the exhaustive tests check (training takes its `ln`s through
/// [`ln_lanes`] inside `loss::bce_bits`).
#[cfg(test)]
pub(crate) fn ln_in_place(kernel: Kernel, v: &mut [f32]) {
    kernel.run(InPlace { v, ln: true });
}

/// [`exp_in_place`]'s and [`ln_in_place`]'s loop.
struct InPlace<'a> {
    v: &'a mut [f32],
    ln: bool,
}

impl Op for InPlace<'_> {
    type Out = ();

    #[inline(always)]
    fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) {
        if self.ln {
            map_lanes(self.v, ln_lanes::<LANES>, logf);
        } else {
            map_lanes(self.v, exp_lanes::<LANES>, expf);
        }
    }
}

/// `v = f(v)`, `L` elements at a time, and `one` for the ones left.
#[inline(always)]
pub(crate) fn map_lanes<const L: usize>(
    v: &mut [f32],
    f: impl Fn([f32; L]) -> [f32; L],
    one: impl Fn(f32) -> f32,
) {
    let mut chunks = v.chunks_exact_mut(L);
    for chunk in &mut chunks {
        let x: [f32; L] = (*chunk).try_into().expect("L lanes");
        chunk.copy_from_slice(&f(x));
    }
    for v in chunks.into_remainder() {
        *v = one(*v);
    }
}

/// [`expf`] of every lane: the main path over all of them, then the
/// scalar function for any lane outside it.
#[inline(always)]
pub(crate) fn exp_lanes<const L: usize>(x: [f32; L]) -> [f32; L] {
    let mut y = [0.0; L];
    let mut slow = false;
    for (y, &x) in y.iter_mut().zip(&x) {
        slow |= exp_is_slow(x);
        *y = exp_main(x);
    }
    if slow {
        patch_slow_lanes(&x, &mut y, exp_is_slow, expf);
    }
    y
}

/// [`logf`] of every lane: the main path over all of them, then the
/// scalar function for any lane outside it.
#[inline(always)]
pub(crate) fn ln_lanes<const L: usize>(x: [f32; L]) -> [f32; L] {
    let mut y = [0.0; L];
    let mut slow = false;
    for (y, &x) in y.iter_mut().zip(&x) {
        slow |= ln_is_slow(x.to_bits());
        *y = ln_main(x.to_bits());
    }
    if slow {
        patch_slow_lanes(&x, &mut y, |x| ln_is_slow(x.to_bits()), logf);
    }
    y
}

/// Recompute with `scalar` the lanes of `y` whose input is `slow`.
#[cold]
#[inline(never)]
fn patch_slow_lanes(x: &[f32], y: &mut [f32], slow: fn(f32) -> bool, scalar: fn(f32) -> f32) {
    for (y, &x) in y.iter_mut().zip(x) {
        if slow(x) {
            *y = scalar(x);
        }
    }
}

/// `|x| ≥ 88`, an infinity or a NaN: glibc's test for its slow path.
#[inline(always)]
fn exp_is_slow(x: f32) -> bool {
    (x.to_bits() >> 20) & 0x7ff > 0x42a
}

/// The slow path's result, or `None` where glibc goes back to the main
/// path (`88 ≤ x ≤ ln 2¹²⁸` and `ln 2⁻¹⁴⁹ ≤ x ≤ −88`).
#[cold]
fn exp_slow(x: f32) -> Option<f32> {
    if x == f32::NEG_INFINITY {
        Some(0.0)
    } else if (x.to_bits() >> 20) & 0x7ff >= 0x7f8 {
        Some(x + x)
    } else if x > EXP_OVERFLOW {
        Some(f32::INFINITY)
    } else if x < EXP_UNDERFLOW {
        Some(0.0)
    } else if x < EXP_MAY_UNDERFLOW {
        Some(f32::from_bits(1))
    } else {
        None
    }
}

/// `x·32/ln 2 = k + r` with `k` an integer and `|r| ≤ ½`; then
/// `eˣ = 2^(k/32) · 2^(r/32)`, the first from the table and the second
/// a cubic in `r`.
#[inline(always)]
fn exp_main(x: f32) -> f32 {
    let xd = f64::from(x);
    let shifted = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = shifted.to_bits();
    let kd = shifted - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let t = EXP_TABLE[(ki % 32) as usize].wrapping_add(ki << 47);
    let s = f64::from_bits(t);
    let [c0, c1, c2] = EXP_POLY;
    let z = c0.mul_add(r, c1);
    let r2 = r * r;
    let y = c2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// Below the least normal, an infinity or a NaN — and every negative
/// input: glibc's test for its slow path.
#[inline(always)]
fn ln_is_slow(ix: u32) -> bool {
    ix.wrapping_sub(0x0080_0000) >= 0x7f80_0000 - 0x0080_0000
}

/// The slow path's result, or — for a subnormal — the bits of `x`
/// scaled into the normals with the scaling taken off the exponent
/// field, for the main path.
#[cold]
fn ln_slow(x: f32) -> Result<f32, u32> {
    let ix = x.to_bits();
    if ix << 1 == 0 {
        Ok(f32::NEG_INFINITY)
    } else if ix == 0x7f80_0000 {
        Ok(x)
    } else if ix << 1 > 0xff00_0000 {
        // A NaN, quieted.
        Ok(x + x)
    } else if ix >> 31 == 1 {
        // Negative: no logarithm. (Which NaN is the hardware's choice
        // in glibc; one for every host here.)
        Ok(f32::NAN)
    } else {
        Err((x * f32::from_bits(0x4b00_0000))
            .to_bits()
            .wrapping_sub(23 << 23))
    }
}

/// `x = 2ᵏ z` with `z` in `[0x1.66p-1, 0x1.66p+0)`, and `c` the table's
/// point of `z`'s interval: `ln x = ln(1 + (z/c − 1)) + ln c + k ln 2`.
/// `ix` is `x`'s bits, or a subnormal's as [`ln_slow`] rescales them.
#[inline(always)]
fn ln_main(ix: u32) -> f32 {
    // `x == 1.0` is `+0.0` in every rounding mode; in the default one
    // the formula gives `+0.0` too, with no branch.
    let tmp = ix.wrapping_sub(LOG_OFF);
    let i = (tmp >> 19) as usize % 16;
    let (invc, logc) = (LOG_INVC[i], LOG_LOGC[i]);
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let r = z.mul_add(invc, -1.0);
    let y0 = f64::from(k).mul_add(LN2, logc);
    let [a0, a1, a2] = LOG_POLY;
    let r2 = r * r;
    let y = r.mul_add(a1, a2);
    let y = r2.mul_add(a0, y);
    r2.mul_add(y, r + y0) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over 32-bit words, from its offset basis.
    #[derive(Clone, Copy)]
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        /// Take in an output's bits, every NaN made the one quiet NaN:
        /// which NaN an invalid operation yields is the hardware's choice.
        fn add(&mut self, y: f32) {
            let word = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
            self.0 = (self.0 ^ u64::from(word)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Digests of glibc 2.36's `expf` and `logf` (the FMA variants, on
    /// an x86-64 host, through `f32::exp` / `f32::ln`) over every
    /// 4096th bit pattern `0, 4096, …` and over all 2³², in ascending
    /// order of the bits.
    const EXP_SAMPLED: u64 = 0x4a5e_f630_31be_d560;
    const LN_SAMPLED: u64 = 0xb2d3_fb74_89c2_1ee0;
    const EXP_ALL: u64 = 0x83cf_1f7a_ae7e_58ac;
    const LN_ALL: u64 = 0xe84e_0d5b_240a_5659;
    /// The same over [`edges`], in its order.
    const EXP_EDGES: u64 = 0xbf39_7ba3_ae81_ac11;
    const LN_EDGES: u64 = 0x9a6f_5c38_784a_9f49;

    /// The two functions as the tests name them: the scalar port and
    /// the in-place lane op, and the two digests glibc's gives.
    struct Function {
        name: &'static str,
        scalar: fn(f32) -> f32,
        lanes: fn(Kernel, &mut [f32]),
        sampled: u64,
        all: u64,
        edges: u64,
    }

    const FUNCTIONS: [Function; 2] = [
        Function {
            name: "expf",
            scalar: expf,
            lanes: exp_in_place,
            sampled: EXP_SAMPLED,
            all: EXP_ALL,
            edges: EXP_EDGES,
        },
        Function {
            name: "logf",
            scalar: logf,
            lanes: ln_in_place,
            sampled: LN_SAMPLED,
            all: LN_ALL,
            edges: LN_EDGES,
        },
    ];

    /// `f` over the bit patterns `0, step, 2·step, …` below 2³², through
    /// the scalar port (`None`) or an instantiation's lanes (in chunks
    /// of 8 Ki inputs, so every lane width divides them): their digest.
    fn digest(f: &Function, path: Option<Kernel>, step: u64) -> u64 {
        const CHUNK: u64 = 8 << 10;
        let mut digest = Fnv::new();
        let mut buf = Vec::with_capacity(CHUNK as usize);
        let mut start = 0u64;
        while start < 1 << 32 {
            let inputs = (start..(start + CHUNK * step).min(1 << 32)).step_by(step as usize);
            buf.clear();
            buf.extend(inputs.map(|bits| f32::from_bits(bits as u32)));
            match path {
                None => buf.iter_mut().for_each(|x| *x = (f.scalar)(*x)),
                Some(kernel) => (f.lanes)(kernel, &mut buf),
            }
            for &y in &buf {
                digest.add(y);
            }
            start += CHUNK * step;
        }
        digest.0
    }

    /// Each function's digest over every `step`th input through the
    /// scalar port and through every instantiation of the lanes this
    /// CPU runs — a thread each — is `want`'s.
    fn assert_digests(step: u64, want: impl Fn(&Function) -> u64) {
        let paths: Vec<Option<Kernel>> = std::iter::once(None)
            .chain(Kernel::instantiations().into_iter().map(Some))
            .collect();
        std::thread::scope(|scope| {
            let runs: Vec<_> = FUNCTIONS
                .iter()
                .flat_map(|f| paths.iter().map(move |&path| (f, path)))
                .map(|(f, path)| (f, path, scope.spawn(move || digest(f, path, step))))
                .collect();
            for (f, path, run) in runs {
                let got = run.join().expect("a digest thread");
                let path = path.map_or("scalar port", |k| k.name());
                assert_eq!(
                    got,
                    want(f),
                    "{} through the {path}: digest {got:#018x} over every {step}th input, \
                     glibc's is {:#018x}",
                    f.name,
                    want(f)
                );
            }
        });
    }

    /// glibc's results on every 4096th input, through the scalar ports
    /// and every instantiation of the lanes.
    #[test]
    fn sampled_inputs_give_glibcs_bits() {
        assert_digests(4096, |f| f.sampled);
    }

    /// glibc's results on all 2³² inputs. Minutes of CPU in a release
    /// build, spread over a thread per function and path:
    /// `cargo test -p e2nvm-ml --release -- --ignored exhaustive`.
    #[test]
    #[ignore = "2^32 inputs per function and path: run in release"]
    fn exhaustive_inputs_give_glibcs_bits() {
        assert_digests(1, |f| f.all);
    }

    /// The edge classes: signed zeros, subnormals, infinities and NaNs,
    /// `expf`'s three thresholds and `logf`'s `1.0` with the floats
    /// either side of each, and negative inputs — every one negated too.
    fn edges() -> Vec<f32> {
        let around = |x: f32| {
            let b = x.to_bits();
            [f32::from_bits(b - 1), x, f32::from_bits(b + 1)]
        };
        let mut xs = vec![
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::MAX,
            1.5,
            88.0,
        ];
        let thresholds = [EXP_OVERFLOW, EXP_UNDERFLOW, EXP_MAY_UNDERFLOW, 1.0];
        xs.extend(thresholds.into_iter().flat_map(around));
        let negated: Vec<f32> = xs.iter().map(|x| -x).collect();
        xs.extend(negated);
        xs
    }

    /// glibc's results at the edge classes and beside every one in a
    /// lane of every instantiation, among ordinary neighbours, so that
    /// a lane takes the slow path alone.
    #[test]
    fn edge_classes_give_glibcs_bits() {
        let xs = edges();
        for f in &FUNCTIONS {
            let mut digest = Fnv::new();
            for &x in &xs {
                digest.add((f.scalar)(x));
            }
            assert_eq!(
                digest.0, f.edges,
                "{} at the edges: {:#018x}",
                f.name, digest.0
            );
            for kernel in Kernel::instantiations() {
                for &x in &xs {
                    let mut row = [0.5f32; 19];
                    row[9] = x;
                    (f.lanes)(kernel, &mut row);
                    let (got, want) = (row[9], (f.scalar)(x));
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{}({x:e}) in a lane of {}: {got:e}, the scalar port {want:e}",
                        f.name,
                        kernel.name()
                    );
                    assert_eq!(row[0], (f.scalar)(0.5), "{} beside {x:e}", f.name);
                }
            }
        }
        // The ones a reader checks by eye.
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!((expf(0.0), expf(-0.0)), (1.0, 1.0));
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert_eq!(
            expf(f32::from_bits(EXP_OVERFLOW.to_bits() + 1)),
            f32::INFINITY
        );
        assert_eq!(
            expf(f32::from_bits(EXP_UNDERFLOW.to_bits() + 1)).to_bits(),
            0
        );
        assert_eq!(
            expf(f32::from_bits(EXP_MAY_UNDERFLOW.to_bits() + 1)).to_bits(),
            1
        );
        assert_eq!(logf(1.0).to_bits(), 0);
        assert_eq!(
            (logf(0.0), logf(-0.0)),
            (f32::NEG_INFINITY, f32::NEG_INFINITY)
        );
        assert_eq!(logf(f32::INFINITY), f32::INFINITY);
        assert!(logf(-1.0).is_nan() && logf(f32::NEG_INFINITY).is_nan() && expf(f32::NAN).is_nan());
    }
}
