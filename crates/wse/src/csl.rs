//! A miniature CSL: the kernel language one PE executes, interpreted
//! against simulated SRAM.
//!
//! The paper's kernels are written in the Cerebras Software Language and
//! run either on hardware or on the SDK simulator (§6.5). This module is
//! that simulator's core idea in miniature: a PE program made of DSR
//! setups and fmac loops, executed against a byte-addressed SRAM image —
//! producing the numeric result *and* the exact cycle/byte counts from
//! the same instruction stream, instead of positing them separately.

use tlr_mvm::precision::to_u64;

use crate::machine::Cs2Config;
use crate::program::Dsr;

/// Scalar register file size.
pub const NUM_REGS: usize = 8;
/// DSR file size.
pub const NUM_DSRS: usize = 8;

/// One mini-CSL instruction.
#[derive(Clone, Copy, Debug)]
pub enum CslOp {
    /// Configure DSR `id` (1 cycle).
    SetDsr {
        /// DSR slot.
        id: u8,
        /// Stream descriptor.
        dsr: Dsr,
    },
    /// Load an FP32 scalar from SRAM into register `reg` (1 cycle).
    LoadScalar {
        /// Destination register.
        reg: u8,
        /// SRAM byte offset (4-byte aligned).
        addr: usize,
    },
    /// `y[i] (+)= sign · a[i] · r` streamed over DSRs `y` and `a` for
    /// `len` elements, with scalar register `r`. One fmac per element per
    /// cycle when the `a` and `y` streams occupy disjoint banks, two
    /// otherwise; `sign` folds subtraction into the same pipeline.
    FmacStream {
        /// Accumulator DSR slot.
        y: u8,
        /// Matrix-operand DSR slot.
        a: u8,
        /// Scalar register.
        r: u8,
        /// Element count.
        len: usize,
        /// +1.0 or −1.0.
        sign: f32,
    },
    /// Dot-product: `acc_reg += Σ a[i]·x[i]` over DSRs `a` and `x`
    /// (`len` elements). Two reads per cycle, accumulate in register —
    /// one fmac/cycle when banks are disjoint.
    DotStream {
        /// Accumulator register.
        acc: u8,
        /// First operand DSR.
        a: u8,
        /// Second operand DSR.
        x: u8,
        /// Element count.
        len: usize,
        /// +1.0 or −1.0 applied to the product.
        sign: f32,
    },
    /// Store register `reg` to SRAM (1 cycle).
    StoreScalar {
        /// Source register.
        reg: u8,
        /// SRAM byte offset.
        addr: usize,
    },
    /// Zero a register (1 cycle).
    ClearReg {
        /// Register to clear.
        reg: u8,
    },
    /// Fixed bookkeeping cost (loop control etc.).
    Nop {
        /// Cycle cost.
        cycles: u64,
    },
}

/// Execution statistics from one interpreted program.
#[derive(Clone, Copy, Debug, Default)]
pub struct CslStats {
    /// Total cycles.
    pub cycles: u64,
    /// fmacs retired.
    pub fmacs: u64,
    /// SRAM bytes read.
    pub bytes_read: u64,
    /// SRAM bytes written.
    pub bytes_written: u64,
}

/// Interpreter error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CslError {
    /// An access fell outside the PE's SRAM.
    OutOfBounds {
        /// Offending byte address.
        addr: usize,
    },
    /// Register or DSR index out of range.
    BadSlot,
    /// A DSR was used before being configured.
    UnsetDsr,
}

impl std::fmt::Display for CslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CslError::OutOfBounds { addr } => write!(f, "SRAM access out of bounds at {addr}"),
            CslError::BadSlot => write!(f, "register/DSR index out of range"),
            CslError::UnsetDsr => write!(f, "DSR used before SetDsr"),
        }
    }
}

impl std::error::Error for CslError {}

/// One simulated PE: an SRAM image (FP32-element granularity, byte
/// addressed) plus register and DSR files.
pub struct Pe<'a> {
    cfg: &'a Cs2Config,
    sram: Vec<f32>,
    regs: [f32; NUM_REGS],
    dsrs: [Option<Dsr>; NUM_DSRS],
}

impl<'a> Pe<'a> {
    /// Fresh PE with zeroed SRAM.
    pub fn new(cfg: &'a Cs2Config) -> Self {
        Self {
            cfg,
            sram: vec![0.0; cfg.sram_bytes / 4],
            regs: [0.0; NUM_REGS],
            dsrs: [None; NUM_DSRS],
        }
    }

    /// Write an FP32 slice into SRAM at a byte offset (host-side load,
    /// not counted in kernel cycles — the paper loads bases once before
    /// the timed loop).
    pub fn load(&mut self, byte_offset: usize, data: &[f32]) -> Result<(), CslError> {
        let w0 = byte_offset / 4;
        if !byte_offset.is_multiple_of(4) || w0 + data.len() > self.sram.len() {
            return Err(CslError::OutOfBounds { addr: byte_offset });
        }
        self.sram[w0..w0 + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Read an FP32 slice back (host-side).
    pub fn read(&self, byte_offset: usize, len: usize) -> Result<Vec<f32>, CslError> {
        let w0 = byte_offset / 4;
        if !byte_offset.is_multiple_of(4) || w0 + len > self.sram.len() {
            return Err(CslError::OutOfBounds { addr: byte_offset });
        }
        Ok(self.sram[w0..w0 + len].to_vec())
    }

    fn dsr(&self, id: u8) -> Result<Dsr, CslError> {
        self.dsrs
            .get(usize::from(id))
            .ok_or(CslError::BadSlot)?
            .ok_or(CslError::UnsetDsr)
    }

    fn elem_index(&self, d: &Dsr, i: usize) -> Result<usize, CslError> {
        let byte = d.base + i * d.stride;
        if !byte.is_multiple_of(4) || byte / 4 >= self.sram.len() {
            return Err(CslError::OutOfBounds { addr: byte });
        }
        Ok(byte / 4)
    }

    /// Execute a program, returning the statistics.
    pub fn run(&mut self, prog: &[CslOp]) -> Result<CslStats, CslError> {
        let mut st = CslStats::default();
        for op in prog {
            match *op {
                CslOp::SetDsr { id, dsr } => {
                    *self
                        .dsrs
                        .get_mut(usize::from(id))
                        .ok_or(CslError::BadSlot)? = Some(dsr);
                    st.cycles += 1;
                }
                CslOp::LoadScalar { reg, addr } => {
                    if addr % 4 != 0 || addr / 4 >= self.sram.len() {
                        return Err(CslError::OutOfBounds { addr });
                    }
                    *self
                        .regs
                        .get_mut(usize::from(reg))
                        .ok_or(CslError::BadSlot)? = self.sram[addr / 4];
                    st.cycles += 1;
                    st.bytes_read += 4;
                }
                CslOp::StoreScalar { reg, addr } => {
                    if addr % 4 != 0 || addr / 4 >= self.sram.len() {
                        return Err(CslError::OutOfBounds { addr });
                    }
                    let v = *self.regs.get(usize::from(reg)).ok_or(CslError::BadSlot)?;
                    self.sram[addr / 4] = v;
                    st.cycles += 1;
                    st.bytes_written += 4;
                }
                CslOp::ClearReg { reg } => {
                    *self
                        .regs
                        .get_mut(usize::from(reg))
                        .ok_or(CslError::BadSlot)? = 0.0;
                    st.cycles += 1;
                }
                CslOp::FmacStream { y, a, r, len, sign } => {
                    let dy = self.dsr(y)?;
                    let da = self.dsr(a)?;
                    let rv = *self.regs.get(usize::from(r)).ok_or(CslError::BadSlot)? * sign;
                    let dual = da.banks_disjoint_from(&dy, self.cfg);
                    for i in 0..len {
                        let ia = self.elem_index(&da, i)?;
                        let iy = self.elem_index(&dy, i)?;
                        self.sram[iy] += self.sram[ia] * rv;
                    }
                    st.fmacs += to_u64(len);
                    st.cycles += if dual { to_u64(len) } else { 2 * to_u64(len) };
                    // Reads: a and y; writes: y.
                    st.bytes_read += 8 * to_u64(len);
                    st.bytes_written += 4 * to_u64(len);
                }
                CslOp::DotStream {
                    acc,
                    a,
                    x,
                    len,
                    sign,
                } => {
                    let da = self.dsr(a)?;
                    let dx = self.dsr(x)?;
                    let dual = da.banks_disjoint_from(&dx, self.cfg);
                    let mut sum = 0.0f32;
                    for i in 0..len {
                        let ia = self.elem_index(&da, i)?;
                        let ix = self.elem_index(&dx, i)?;
                        sum += self.sram[ia] * self.sram[ix];
                    }
                    *self
                        .regs
                        .get_mut(usize::from(acc))
                        .ok_or(CslError::BadSlot)? += sum * sign;
                    st.fmacs += to_u64(len);
                    st.cycles += if dual { to_u64(len) } else { 2 * to_u64(len) };
                    st.bytes_read += 8 * to_u64(len);
                }
                CslOp::Nop { cycles } => st.cycles += cycles,
            }
        }
        Ok(st)
    }
}

/// SRAM layout of one strategy-1 chunk kernel: the four real base
/// matrices, the split x/yv/y vectors.
#[derive(Clone, Copy, Debug)]
pub struct ChunkLayout {
    /// Tile size.
    pub nb: usize,
    /// Column width.
    pub cl: usize,
    /// Stack width.
    pub w: usize,
    /// Byte offsets: `V_re`, `V_im` (cl×w col-major), `U_re`, `U_im`
    /// (nb×w), `x_re`, `x_im` (cl), `yv_re`, `yv_im` (w), `y_re`, `y_im`
    /// (nb).
    pub v_re: usize,
    /// `V_im` offset.
    pub v_im: usize,
    /// `U_re` offset.
    pub u_re: usize,
    /// `U_im` offset.
    pub u_im: usize,
    /// `x_re` offset.
    pub x_re: usize,
    /// `x_im` offset.
    pub x_im: usize,
    /// `yv_re` offset.
    pub yv_re: usize,
    /// `yv_im` offset.
    pub yv_im: usize,
    /// `y_re` offset.
    pub y_re: usize,
    /// `y_im` offset.
    pub y_im: usize,
}

impl ChunkLayout {
    /// Lay the arrays out sequentially from offset 0, with the bases
    /// first (they dominate the bank budget) and 8-byte padding.
    pub fn plan(nb: usize, cl: usize, w: usize) -> Self {
        let pad8 = |x: usize| x.div_ceil(8) * 8;
        let mut cursor = 0usize;
        let mut place = |elems: usize| {
            let at = cursor;
            cursor += pad8(4 * elems);
            at
        };
        let v_re = place(cl * w);
        let v_im = place(cl * w);
        let u_re = place(nb * w);
        let u_im = place(nb * w);
        let x_re = place(cl);
        let x_im = place(cl);
        let yv_re = place(w);
        let yv_im = place(w);
        let y_re = place(nb);
        let y_im = place(nb);
        Self {
            nb,
            cl,
            w,
            v_re,
            v_im,
            u_re,
            u_im,
            x_re,
            x_im,
            yv_re,
            yv_im,
            y_re,
            y_im,
        }
    }

    /// Total padded SRAM image of the chunk (bases plus working
    /// vectors) — the footprint the static verifier bounds against the
    /// PE's physical SRAM.
    pub fn total_bytes(&self) -> usize {
        let pad8 = |x: usize| x.div_ceil(8) * 8;
        self.y_im + pad8(4 * self.nb)
    }

    /// Column-major element DSR over a matrix column.
    fn col_dsr(base: usize, rows: usize, col: usize) -> Dsr {
        Dsr {
            base: base + 4 * rows * col,
            stride: 4,
            len: rows,
        }
    }

    /// Vector DSR.
    fn vec_dsr(base: usize, len: usize) -> Dsr {
        Dsr {
            base,
            stride: 4,
            len,
        }
    }

    /// Emit the fused chunk kernel (the eight real MVMs of §6.6):
    ///
    /// V phase (dot form, per rank column `r`):
    /// `yv_re[r] = V_reᵀx_re + V_imᵀx_im`, `yv_im[r] = V_reᵀx_im − V_imᵀx_re`
    /// (i.e. `yv = Vᴴ x`); U phase (axpy form, per rank column):
    /// `y_re += U_re·yv_re − U_im·yv_im`, `y_im += U_re·yv_im + U_im·yv_re`.
    pub fn emit_kernel(&self) -> Vec<CslOp> {
        let mut prog = Vec::new();
        let (nb, cl, w) = (self.nb, self.cl, self.w);
        // V phase: for each rank column r, four dot products.
        for r in 0..w {
            prog.push(CslOp::SetDsr {
                id: 0,
                dsr: Self::col_dsr(self.v_re, cl, r),
            });
            prog.push(CslOp::SetDsr {
                id: 1,
                dsr: Self::col_dsr(self.v_im, cl, r),
            });
            prog.push(CslOp::SetDsr {
                id: 2,
                dsr: Self::vec_dsr(self.x_re, cl),
            });
            prog.push(CslOp::SetDsr {
                id: 3,
                dsr: Self::vec_dsr(self.x_im, cl),
            });
            // yv_re[r] = Vreᵀxre + Vimᵀxim
            prog.push(CslOp::ClearReg { reg: 0 });
            prog.push(CslOp::DotStream {
                acc: 0,
                a: 0,
                x: 2,
                len: cl,
                sign: 1.0,
            });
            prog.push(CslOp::DotStream {
                acc: 0,
                a: 1,
                x: 3,
                len: cl,
                sign: 1.0,
            });
            prog.push(CslOp::StoreScalar {
                reg: 0,
                addr: self.yv_re + 4 * r,
            });
            // yv_im[r] = Vreᵀxim − Vimᵀxre
            prog.push(CslOp::ClearReg { reg: 1 });
            prog.push(CslOp::DotStream {
                acc: 1,
                a: 0,
                x: 3,
                len: cl,
                sign: 1.0,
            });
            prog.push(CslOp::DotStream {
                acc: 1,
                a: 1,
                x: 2,
                len: cl,
                sign: -1.0,
            });
            prog.push(CslOp::StoreScalar {
                reg: 1,
                addr: self.yv_im + 4 * r,
            });
        }
        // U phase: for each rank column r, four axpy streams.
        for r in 0..w {
            prog.push(CslOp::LoadScalar {
                reg: 2,
                addr: self.yv_re + 4 * r,
            });
            prog.push(CslOp::LoadScalar {
                reg: 3,
                addr: self.yv_im + 4 * r,
            });
            prog.push(CslOp::SetDsr {
                id: 4,
                dsr: Self::col_dsr(self.u_re, nb, r),
            });
            prog.push(CslOp::SetDsr {
                id: 5,
                dsr: Self::col_dsr(self.u_im, nb, r),
            });
            prog.push(CslOp::SetDsr {
                id: 6,
                dsr: Self::vec_dsr(self.y_re, nb),
            });
            prog.push(CslOp::SetDsr {
                id: 7,
                dsr: Self::vec_dsr(self.y_im, nb),
            });
            prog.push(CslOp::FmacStream {
                y: 6,
                a: 4,
                r: 2,
                len: nb,
                sign: 1.0,
            });
            prog.push(CslOp::FmacStream {
                y: 6,
                a: 5,
                r: 3,
                len: nb,
                sign: -1.0,
            });
            prog.push(CslOp::FmacStream {
                y: 7,
                a: 4,
                r: 3,
                len: nb,
                sign: 1.0,
            });
            prog.push(CslOp::FmacStream {
                y: 7,
                a: 5,
                r: 2,
                len: nb,
                sign: 1.0,
            });
        }
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_la::scalar::C32;
    use seismic_la::Matrix;
    use tlr_mvm::real4::{split_vec, RealSplitMatrix};

    fn col_major_f32(m: &Matrix<f32>) -> Vec<f32> {
        m.as_slice().to_vec()
    }

    /// Run the emitted kernel on a random chunk and compare with the
    /// host-side split-complex arithmetic.
    #[test]
    fn csl_kernel_matches_host_arithmetic() {
        let cfg = Cs2Config::default();
        let (nb, cl, w) = (25usize, 25usize, 16usize);
        let v = Matrix::from_fn(cl, w, |i, j| {
            C32::new((i as f32 * 0.3 + j as f32).sin(), (j as f32 * 0.7).cos())
        });
        let u = Matrix::from_fn(nb, w, |i, j| {
            C32::new((i as f32 - j as f32).cos() * 0.5, (i as f32 * 0.2).sin())
        });
        let x: Vec<C32> = (0..cl)
            .map(|i| C32::new((i as f32 * 0.11).cos(), (i as f32 * 0.09).sin()))
            .collect();

        // Host reference: yv = Vᴴx, y = U yv.
        let vs = RealSplitMatrix::from_complex(&v);
        let us = RealSplitMatrix::from_complex(&u);
        let (xr, xi) = split_vec(&x);
        let mut yvr = vec![0.0f32; w];
        let mut yvi = vec![0.0f32; w];
        vs.gemv_conj_transpose_acc_4real(&xr, &xi, &mut yvr, &mut yvi);
        let mut want_yr = vec![0.0f32; nb];
        let mut want_yi = vec![0.0f32; nb];
        us.gemv_acc_4real(&yvr, &yvi, &mut want_yr, &mut want_yi);

        // CSL execution.
        let layout = ChunkLayout::plan(nb, cl, w);
        let mut pe = Pe::new(&cfg);
        pe.load(layout.v_re, &col_major_f32(&vs.re)).unwrap();
        pe.load(layout.v_im, &col_major_f32(&vs.im)).unwrap();
        pe.load(layout.u_re, &col_major_f32(&us.re)).unwrap();
        pe.load(layout.u_im, &col_major_f32(&us.im)).unwrap();
        pe.load(layout.x_re, &xr).unwrap();
        pe.load(layout.x_im, &xi).unwrap();
        let stats = pe.run(&layout.emit_kernel()).unwrap();
        let got_yr = pe.read(layout.y_re, nb).unwrap();
        let got_yi = pe.read(layout.y_im, nb).unwrap();

        for (g, wv) in got_yr.iter().zip(&want_yr) {
            assert!((g - wv).abs() < 1e-4, "{g} vs {wv}");
        }
        for (g, wv) in got_yi.iter().zip(&want_yi) {
            assert!((g - wv).abs() < 1e-4);
        }
        // Exactly 8 real MVMs worth of fmacs.
        assert_eq!(stats.fmacs, (4 * cl * w + 4 * nb * w) as u64);
        assert!(stats.cycles >= stats.fmacs);
        assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
    }

    #[test]
    fn csl_cycles_close_to_closed_form() {
        // The interpreted schedule's cycles should track the calibrated
        // closed-form model (which folds DSR/bookkeeping into
        // 13·sweeps + 425): same order, within 2×.
        let cfg = Cs2Config::default();
        let (nb, cl, w) = (70usize, 70usize, 23usize);
        let layout = ChunkLayout::plan(nb, cl, w);
        let mut pe = Pe::new(&cfg);
        let stats = pe.run(&layout.emit_kernel()).unwrap();
        let model = crate::cycles::pe_cost(&crate::cycles::strategy1_tasks(nb, cl, w), &cfg, true);
        let ratio = stats.cycles as f64 / model.cycles as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "interpreted {} vs model {} (ratio {ratio})",
            stats.cycles,
            model.cycles
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let cfg = Cs2Config::default();
        let mut pe = Pe::new(&cfg);
        assert!(matches!(
            pe.load(cfg.sram_bytes, &[1.0]),
            Err(CslError::OutOfBounds { .. })
        ));
        let bad = [CslOp::LoadScalar {
            reg: 0,
            addr: cfg.sram_bytes + 4,
        }];
        assert!(pe.run(&bad).is_err());
    }

    #[test]
    fn unset_dsr_rejected() {
        let cfg = Cs2Config::default();
        let mut pe = Pe::new(&cfg);
        let prog = [CslOp::FmacStream {
            y: 0,
            a: 1,
            r: 0,
            len: 4,
            sign: 1.0,
        }];
        assert_eq!(pe.run(&prog).unwrap_err(), CslError::UnsetDsr);
    }

    #[test]
    fn sram_capacity_respected_for_paper_chunks() {
        // The nb=70/w=23 layout must fit 48 kB with room for the vectors.
        let layout = ChunkLayout::plan(70, 70, 23);
        let end = layout.y_im + 8 * 70;
        assert!(end <= 48 * 1024, "layout ends at {end}");
        // One step beyond the SRAM-derived stack width must not fit the
        // bases budget (mirrors sram::plan_strategy1_pe).
        let cfg = Cs2Config::default();
        assert!(crate::sram::plan_strategy1_pe(&cfg, 70, 70, 24).is_err());
    }
}
