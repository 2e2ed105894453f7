//! The instruction-set simulator: an in-order, single-issue PISA-like
//! core with a data cache and the custom FFT unit in its EX stage.
//!
//! The simulator is execution-driven and deterministic: the cycle count
//! is the sum of per-instruction latencies from [`Timing`] plus cache
//! stalls — the same observables the paper extracts from its modified
//! SimpleScalar.

use crate::cache::{Cache, CacheConfig};
use crate::custom::FftUnit;
use crate::error::SimError;
use crate::mem::{unpack_complex, Memory};
use crate::stats::Stats;
use crate::timing::Timing;
use afft_core::Scaling;
use afft_isa::{Instr, Program, Reg};
use afft_num::{Complex, Q15};

/// Construction parameters for a [`Machine`].
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Data-memory size in bytes.
    pub mem_bytes: usize,
    /// Data-cache geometry.
    pub cache: CacheConfig,
    /// Latency model.
    pub timing: Timing,
    /// CRF capacity in points (sized for the largest epoch-0 group).
    pub crf_capacity: usize,
    /// Datapath scaling of the butterfly unit.
    pub scaling: Scaling,
    /// Whether `LDIN`/`STOUT` beats go through the D-cache. The real
    /// extension uses a decoupled 64-bit streaming port that does not
    /// allocate (the default, `false`); `true` routes them through the
    /// cache for the ablation experiment.
    pub custom_ops_cached: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem_bytes: 1 << 20,
            cache: CacheConfig::pisa_32k(),
            timing: Timing::default(),
            crf_capacity: 64,
            scaling: Scaling::HalfPerStage,
            custom_ops_cached: false,
        }
    }
}

/// The simulated machine: core + memory + cache + FFT unit.
///
/// [`Machine::load_program`] decodes the program image once; each step
/// dispatches on the decoded instruction. A word that does not decode
/// still traps only when execution reaches it. [`Machine::restart`]
/// returns the machine to its power-on state but keeps the loaded
/// program, so one machine can run the same program over many inputs
/// without rebuilding its memory, cache or FFT unit.
///
/// # Examples
///
/// ```
/// use afft_sim::{Machine, MachineConfig};
/// use afft_isa::{Instr, Program, Reg};
///
/// let mut m = Machine::new(MachineConfig::default());
/// m.load_program(Program::from_instrs(&[
///     Instr::Addi { rt: Reg::V0, rs: Reg::ZERO, imm: 21 },
///     Instr::Add { rd: Reg::V0, rs: Reg::V0, rt: Reg::V0 },
///     Instr::Halt,
/// ]));
/// let stats = m.run(1_000)?;
/// assert_eq!(m.reg(Reg::V0), 42);
/// assert_eq!(stats.instrs, 3);
/// # Ok::<(), afft_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    timing: Timing,
    program: Program,
    // `program` decoded at load time, one entry per word; `None` marks a
    // word that does not decode.
    decoded: Vec<Option<Instr>>,
    regs: [u32; 32],
    pc: usize,
    halted: bool,
    mem: Memory,
    cache: Cache,
    fft: FftUnit,
    stats: Stats,
    custom_ops_cached: bool,
}

impl Machine {
    /// Builds a machine at its power-on state (see [`Machine::restart`])
    /// with no program loaded.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut machine = Machine {
            timing: cfg.timing,
            program: Program::from_words(Vec::new()),
            decoded: Vec::new(),
            regs: [0; 32],
            pc: 0,
            halted: false,
            mem: Memory::new(cfg.mem_bytes),
            cache: Cache::new(cfg.cache),
            fft: FftUnit::new(cfg.crf_capacity, cfg.scaling),
            stats: Stats::default(),
            custom_ops_cached: cfg.custom_ops_cached,
        };
        machine.restart();
        machine
    }

    /// Returns the machine to its power-on state, keeping its
    /// configuration and the loaded program: registers, pc, the halt
    /// flag and statistics clear; every byte of memory zero; every
    /// cache line invalid with the LRU clock and counters at zero; the
    /// FFT unit's CRF zero and every register `MTFFT` can set at its
    /// reset value. A run after `restart` cannot tell it is not on a
    /// fresh machine.
    pub fn restart(&mut self) {
        // Exhaustive on purpose: a field added to `Machine` has to be
        // placed here, as kept configuration or as reset state.
        let Machine {
            timing: _,
            program: _,
            decoded: _,
            regs,
            pc,
            halted,
            mem,
            cache,
            fft,
            stats,
            custom_ops_cached: _,
        } = self;
        *regs = [0; 32];
        *pc = 0;
        *halted = false;
        mem.clear();
        cache.flush();
        fft.restart();
        *stats = Stats::default();
    }

    /// Installs a program, decoding its image once, resets pc/halt
    /// state, and returns the program it replaces. Registers, memory,
    /// cache and statistics are preserved so inputs can be staged
    /// first; call [`Machine::reset_stats`] for a clean measurement.
    pub fn load_program(&mut self, program: Program) -> Program {
        self.decoded.clear();
        self.decoded.extend(program.words().iter().map(|&word| Instr::decode(word).ok()));
        self.pc = 0;
        self.halted = false;
        core::mem::replace(&mut self.program, program)
    }

    /// Reads a GPR.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes a GPR (writes to `zero` are ignored, as in hardware).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Data memory (for staging inputs and reading results).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable data memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The custom FFT unit (for inspection in tests).
    pub fn fft(&self) -> &FftUnit {
        &self.fft
    }

    /// Statistics accumulated so far (cache counters folded in).
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.cache = self.cache.stats();
        s
    }

    /// Clears statistics and cache counters (cache *contents* persist).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
        self.cache.reset_stats();
    }

    /// Whether the core has executed `HALT`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Current program counter (word index).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Runs until `HALT` or the cycle limit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimit`] if the budget is exhausted, or
    /// any trap raised by execution.
    pub fn run(&mut self, max_cycles: u64) -> Result<Stats, SimError> {
        while !self.halted {
            self.step()?;
            if self.stats.cycles > max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
        }
        Ok(self.stats())
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] trap on bad fetches, bad memory accesses
    /// or invalid custom-unit operations.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        let instr = match self.decoded.get(self.pc) {
            Some(&Some(instr)) => instr,
            // Off the end of the image, or a word that does not decode:
            // the image itself names the trap.
            _ => self
                .program
                .instr_at(self.pc)
                .map_err(|source| SimError::BadInstruction { pc: self.pc, source })?,
        };
        self.stats.instrs += 1;
        let t = self.timing;
        let mut next = self.pc + 1;
        use Instr::*;
        match instr {
            Add { rd, rs, rt } => self.alu3(rd, rs, rt, u32::wrapping_add),
            Sub { rd, rs, rt } => self.alu3(rd, rs, rt, u32::wrapping_sub),
            And { rd, rs, rt } => self.alu3(rd, rs, rt, |a, b| a & b),
            Or { rd, rs, rt } => self.alu3(rd, rs, rt, |a, b| a | b),
            Xor { rd, rs, rt } => self.alu3(rd, rs, rt, |a, b| a ^ b),
            Nor { rd, rs, rt } => self.alu3(rd, rs, rt, |a, b| !(a | b)),
            Slt { rd, rs, rt } => self.alu3(rd, rs, rt, |a, b| u32::from((a as i32) < (b as i32))),
            Sltu { rd, rs, rt } => self.alu3(rd, rs, rt, |a, b| u32::from(a < b)),
            Sll { rd, rt, shamt } => {
                let v = self.reg(rt) << shamt;
                self.set_reg(rd, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Srl { rd, rt, shamt } => {
                let v = self.reg(rt) >> shamt;
                self.set_reg(rd, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Sra { rd, rt, shamt } => {
                let v = ((self.reg(rt) as i32) >> shamt) as u32;
                self.set_reg(rd, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Sllv { rd, rt, rs } => {
                let v = self.reg(rt) << (self.reg(rs) & 31);
                self.set_reg(rd, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Srlv { rd, rt, rs } => {
                let v = self.reg(rt) >> (self.reg(rs) & 31);
                self.set_reg(rd, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Srav { rd, rt, rs } => {
                let v = ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32;
                self.set_reg(rd, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Mul { rd, rs, rt } => {
                let v = (self.reg(rs) as i32).wrapping_mul(self.reg(rt) as i32) as u32;
                self.set_reg(rd, v);
                self.stats.mul += 1;
                self.stats.cycles += t.mul;
            }
            Mulh { rd, rs, rt } => {
                let v = ((i64::from(self.reg(rs) as i32) * i64::from(self.reg(rt) as i32)) >> 32)
                    as u32;
                self.set_reg(rd, v);
                self.stats.mul += 1;
                self.stats.cycles += t.mul;
            }
            Mulhu { rd, rs, rt } => {
                let v = ((u64::from(self.reg(rs)) * u64::from(self.reg(rt))) >> 32) as u32;
                self.set_reg(rd, v);
                self.stats.mul += 1;
                self.stats.cycles += t.mul;
            }
            Jr { rs } => {
                next = (self.reg(rs) / 4) as usize;
                self.stats.jumps += 1;
                self.stats.cycles += t.jump + t.taken_extra;
            }
            Jalr { rd, rs } => {
                self.set_reg(rd, (self.pc as u32 + 1) * 4);
                next = (self.reg(rs) / 4) as usize;
                self.stats.jumps += 1;
                self.stats.cycles += t.jump + t.taken_extra;
            }
            Halt => {
                self.halted = true;
                self.stats.cycles += t.alu;
            }
            Addi { rt, rs, imm } => {
                let v = self.reg(rs).wrapping_add(imm as i32 as u32);
                self.set_reg(rt, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Slti { rt, rs, imm } => {
                let v = u32::from((self.reg(rs) as i32) < i32::from(imm));
                self.set_reg(rt, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Andi { rt, rs, imm } => {
                let v = self.reg(rs) & u32::from(imm);
                self.set_reg(rt, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Ori { rt, rs, imm } => {
                let v = self.reg(rs) | u32::from(imm);
                self.set_reg(rt, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Xori { rt, rs, imm } => {
                let v = self.reg(rs) ^ u32::from(imm);
                self.set_reg(rt, v);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Lui { rt, imm } => {
                self.set_reg(rt, u32::from(imm) << 16);
                self.stats.alu += 1;
                self.stats.cycles += t.alu;
            }
            Lw { rt, base, offset } => {
                let addr = self.ea(base, offset);
                let v = self.mem.read_u32(addr)?;
                self.set_reg(rt, v);
                self.finish_mem(addr, false);
            }
            Lh { rt, base, offset } => {
                let addr = self.ea(base, offset);
                let v = self.mem.read_u16(addr)? as i16 as i32 as u32;
                self.set_reg(rt, v);
                self.finish_mem(addr, false);
            }
            Lhu { rt, base, offset } => {
                let addr = self.ea(base, offset);
                let v = u32::from(self.mem.read_u16(addr)?);
                self.set_reg(rt, v);
                self.finish_mem(addr, false);
            }
            Sw { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.mem.write_u32(addr, self.reg(rt))?;
                self.finish_mem_store(addr);
            }
            Sh { rt, base, offset } => {
                let addr = self.ea(base, offset);
                self.mem.write_u16(addr, self.reg(rt) as u16)?;
                self.finish_mem_store(addr);
            }
            Beq { rs, rt, offset } => {
                next = self.branch(self.reg(rs) == self.reg(rt), offset, next);
            }
            Bne { rs, rt, offset } => {
                next = self.branch(self.reg(rs) != self.reg(rt), offset, next);
            }
            Blez { rs, offset } => {
                next = self.branch(self.reg(rs) as i32 <= 0, offset, next);
            }
            Bgtz { rs, offset } => {
                next = self.branch(self.reg(rs) as i32 > 0, offset, next);
            }
            Bltz { rs, offset } => {
                next = self.branch((self.reg(rs) as i32) < 0, offset, next);
            }
            Bgez { rs, offset } => {
                next = self.branch(self.reg(rs) as i32 >= 0, offset, next);
            }
            J { target } => {
                next = target as usize;
                self.stats.jumps += 1;
                self.stats.cycles += t.jump + t.taken_extra;
            }
            Jal { target } => {
                self.set_reg(Reg::RA, (self.pc as u32 + 1) * 4);
                next = target as usize;
                self.stats.jumps += 1;
                self.stats.cycles += t.jump + t.taken_extra;
            }
            But4 { stage, module } => {
                self.fft.but4(self.reg(stage), self.reg(module))?;
                self.stats.but4 += 1;
                self.stats.cycles += t.but4;
            }
            Ldin { base, offset } => {
                let addr = self.ea(base, offset);
                let stride = self.fft.load_stride();
                if stride == 1 {
                    // One 64-bit beat of two adjacent points.
                    let beat = self.mem.read_u64(addr)?;
                    self.fft
                        .ldin([unpack_complex(beat as u32), unpack_complex((beat >> 32) as u32)]);
                    self.charge_custom_access(addr, false, t.custom_mem);
                } else {
                    // Corner-turn gather: two 32-bit fetches `stride`
                    // points apart (two port beats; the paper counts
                    // this as one LDIN instruction).
                    let addr2 = addr.wrapping_add(4 * stride);
                    let p0 = self.mem.read_complex(addr)?;
                    let p1 = self.mem.read_complex(addr2)?;
                    self.fft.ldin([p0, p1]);
                    self.charge_custom_access(addr, false, t.custom_mem);
                    self.charge_custom_access(addr2, false, 0);
                }
                self.stats.ldin += 1;
            }
            Stout { base, offset } => {
                let addr = self.ea(base, offset);
                let beat = self.fft.stout();
                let mut vals = beat.values;
                for (v, f) in vals.iter_mut().zip(beat.coef) {
                    let Some(f) = f else { continue };
                    let entry = self.mem.read_complex(f.table_byte_offset)?;
                    self.charge_access(f.table_byte_offset, false, t.coef_fetch);
                    self.stats.coef_fetches += 1;
                    *v = self.fft.rotate(*v, entry, f.op);
                }
                let word = u64::from(crate::mem::pack_complex(vals[0]))
                    | (u64::from(crate::mem::pack_complex(vals[1])) << 32);
                self.mem.write_u64(addr, word)?;
                self.stats.stout += 1;
                self.charge_custom_access(addr, true, t.custom_mem);
            }
            Mtfft { rs, sel } => {
                self.fft.mtfft(sel, self.reg(rs))?;
                self.stats.mtfft += 1;
                self.stats.cycles += t.mtfft;
            }
        }
        self.pc = next;
        Ok(())
    }

    fn alu3(&mut self, rd: Reg, rs: Reg, rt: Reg, f: impl Fn(u32, u32) -> u32) {
        let v = f(self.reg(rs), self.reg(rt));
        self.set_reg(rd, v);
        self.stats.alu += 1;
        self.stats.cycles += self.timing.alu;
    }

    fn ea(&self, base: Reg, offset: i16) -> u32 {
        self.reg(base).wrapping_add(offset as i32 as u32)
    }

    fn branch(&mut self, taken: bool, offset: i16, fallthrough: usize) -> usize {
        self.stats.branches += 1;
        self.stats.cycles += self.timing.branch;
        if taken {
            self.stats.branches_taken += 1;
            self.stats.cycles += self.timing.taken_extra;
            (fallthrough as i64 + i64::from(offset)) as usize
        } else {
            fallthrough
        }
    }

    /// Charges an `LDIN`/`STOUT` beat: by default the streaming port
    /// (flat latency, no cache interaction); through the D-cache when
    /// the ablation flag is set.
    fn charge_custom_access(&mut self, addr: u32, write: bool, base_cycles: u64) {
        if self.custom_ops_cached {
            self.charge_access(addr, write, base_cycles);
        } else {
            self.stats.cycles += base_cycles;
        }
    }

    fn charge_access(&mut self, addr: u32, write: bool, base_cycles: u64) {
        let outcome = self.cache.access(addr, write);
        let mut cycles = base_cycles;
        if !outcome.hit {
            cycles += self.timing.miss_penalty;
        }
        if outcome.evicted_dirty {
            cycles += self.timing.writeback_penalty;
        }
        self.stats.cycles += cycles;
    }

    fn finish_mem(&mut self, addr: u32, _write: bool) {
        self.stats.loads += 1;
        self.charge_access(addr, false, self.timing.mem_hit);
    }

    fn finish_mem_store(&mut self, addr: u32) {
        self.stats.stores += 1;
        self.charge_access(addr, true, self.timing.mem_hit);
    }
}

/// Stages a complex vector into memory at `addr` (4 bytes per point),
/// without touching the cache — models DMA-style input placement.
///
/// # Errors
///
/// Propagates memory bound errors.
pub fn stage_input(m: &mut Machine, addr: u32, data: &[Complex<Q15>]) -> Result<(), SimError> {
    m.mem_mut().write_complex_slice(addr, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_isa::{Asm, DecodeError};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn arithmetic_loop_runs() {
        // sum = 1 + 2 + ... + 10
        let mut a = Asm::new();
        a.li(Reg::T0, 10);
        a.li(Reg::V0, 0);
        a.label("loop");
        a.emit(Instr::Add { rd: Reg::V0, rs: Reg::V0, rt: Reg::T0 });
        a.emit(Instr::Addi { rt: Reg::T0, rs: Reg::T0, imm: -1 });
        a.bgtz_to(Reg::T0, "loop");
        a.emit(Instr::Halt);
        let mut m = machine();
        m.load_program(a.assemble().unwrap());
        let s = m.run(10_000).unwrap();
        assert_eq!(m.reg(Reg::V0), 55);
        assert_eq!(s.branches, 10);
        assert_eq!(s.branches_taken, 9);
    }

    #[test]
    fn memory_and_cache_counters() {
        let mut a = Asm::new();
        a.li(Reg::T0, 0x1234);
        a.emit(Instr::Sw { rt: Reg::T0, base: Reg::ZERO, offset: 64 });
        a.emit(Instr::Lw { rt: Reg::V0, base: Reg::ZERO, offset: 64 });
        a.emit(Instr::Lw { rt: Reg::V1, base: Reg::ZERO, offset: 68 });
        a.emit(Instr::Halt);
        let mut m = machine();
        m.load_program(a.assemble().unwrap());
        let s = m.run(1000).unwrap();
        assert_eq!(m.reg(Reg::V0), 0x1234);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.cache.misses, 1); // one cold line, then hits
    }

    #[test]
    fn signed_ops_and_shifts() {
        let mut a = Asm::new();
        a.li(Reg::T0, -8);
        a.emit(Instr::Sra { rd: Reg::T1, rt: Reg::T0, shamt: 1 }); // -4
        a.emit(Instr::Srl { rd: Reg::T2, rt: Reg::T0, shamt: 28 }); // 0xf
        a.emit(Instr::Slt { rd: Reg::T3, rs: Reg::T0, rt: Reg::ZERO }); // 1
        a.emit(Instr::Sltu { rd: Reg::T4, rs: Reg::T0, rt: Reg::ZERO }); // 0
        a.emit(Instr::Halt);
        let mut m = machine();
        m.load_program(a.assemble().unwrap());
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::T1) as i32, -4);
        assert_eq!(m.reg(Reg::T2), 0xf);
        assert_eq!(m.reg(Reg::T3), 1);
        assert_eq!(m.reg(Reg::T4), 0);
    }

    #[test]
    fn mul_family() {
        let mut a = Asm::new();
        a.li(Reg::T0, -3);
        a.li(Reg::T1, 100_000);
        a.emit(Instr::Mul { rd: Reg::T2, rs: Reg::T0, rt: Reg::T1 });
        a.emit(Instr::Mulh { rd: Reg::T3, rs: Reg::T0, rt: Reg::T1 });
        a.emit(Instr::Mulhu { rd: Reg::T4, rs: Reg::T0, rt: Reg::T1 });
        a.emit(Instr::Halt);
        let mut m = machine();
        m.load_program(a.assemble().unwrap());
        let s = m.run(100).unwrap();
        assert_eq!(m.reg(Reg::T2) as i32, -300_000);
        assert_eq!(m.reg(Reg::T3) as i32, -1);
        let wide = u64::from(-3i32 as u32) * 100_000u64;
        assert_eq!(m.reg(Reg::T4), (wide >> 32) as u32);
        assert_eq!(s.mul, 3);
        // Multiplies cost Timing::default().mul cycles each.
        assert!(s.cycles >= 3 * Timing::default().mul);
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        a.jal_to("f");
        a.emit(Instr::Halt);
        a.label("f");
        a.li(Reg::V0, 99);
        a.emit(Instr::Jr { rs: Reg::RA });
        let mut m = machine();
        m.load_program(a.assemble().unwrap());
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::V0), 99);
        assert!(m.is_halted());
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut a = Asm::new();
        a.emit(Instr::Addi { rt: Reg::ZERO, rs: Reg::ZERO, imm: 5 });
        a.emit(Instr::Halt);
        let mut m = machine();
        m.load_program(a.assemble().unwrap());
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn cycle_limit_trap() {
        let mut a = Asm::new();
        a.label("spin");
        a.j_to("spin");
        let mut m = machine();
        m.load_program(a.assemble().unwrap());
        assert!(matches!(m.run(50), Err(SimError::CycleLimit { limit: 50 })));
    }

    #[test]
    fn pc_off_the_end_traps() {
        let mut m = machine();
        m.load_program(Program::from_instrs(&[Instr::NOP]));
        m.step().unwrap();
        assert_eq!(
            m.step(),
            Err(SimError::BadInstruction { pc: 1, source: DecodeError { word: 0xffff_ffff } })
        );
    }

    #[test]
    fn undecodable_word_traps_only_when_reached() {
        let bad = 0xfc00_0000; // opcode 0x3f: no instruction
        assert!(Instr::decode(bad).is_err());
        let mut words = Program::from_instrs(&[
            Instr::Addi { rt: Reg::V0, rs: Reg::ZERO, imm: 1 },
            // Jumps over the first bad word.
            Instr::Beq { rs: Reg::ZERO, rt: Reg::ZERO, offset: 1 },
        ])
        .words()
        .to_vec();
        words.push(bad);
        words.push(Instr::Addi { rt: Reg::V1, rs: Reg::ZERO, imm: 2 }.encode());
        words.push(bad);
        let mut m = machine();
        m.load_program(Program::from_words(words));
        assert_eq!(
            m.run(1_000),
            Err(SimError::BadInstruction { pc: 4, source: DecodeError { word: bad } })
        );
        assert_eq!((m.reg(Reg::V0), m.reg(Reg::V1)), (1, 2), "the valid words all ran");
    }

    #[test]
    fn restart_returns_to_power_on_and_keeps_the_program() {
        use afft_isa::FftCfg;
        let cfg = MachineConfig { mem_bytes: 4096, crf_capacity: 16, ..MachineConfig::default() };
        // Leaves state everywhere: registers, memory, a cache line, a
        // nonzero CRF and every MTFFT register off its reset value.
        let mut a = Asm::new();
        a.li(Reg::T0, 0x1234);
        a.emit(Instr::Sw { rt: Reg::T0, base: Reg::ZERO, offset: 64 });
        a.emit(Instr::Lw { rt: Reg::V0, base: Reg::ZERO, offset: 64 });
        for (sel, value) in [
            (FftCfg::GroupSizeLog2, 4),
            (FftCfg::NLog2, 10),
            (FftCfg::GroupId, 5),
            (FftCfg::PrerotEnable, 1),
            (FftCfg::PrerotBase, 0x100),
            (FftCfg::InverseEnable, 1),
            (FftCfg::LoadStride, 2),
            (FftCfg::StorePtr, 6),
        ] {
            a.li(Reg::T1, value);
            a.emit(Instr::Mtfft { rs: Reg::T1, sel });
        }
        a.emit(Instr::Ldin { base: Reg::ZERO, offset: 64 });
        a.emit(Instr::Halt);
        let program = a.assemble().unwrap();

        let mut m = Machine::new(cfg);
        m.load_program(program.clone());
        let first = m.run(10_000).unwrap();
        assert_eq!(first.cache.misses, 1);
        assert!(m.fft().crf().iter().any(|&c| c != Complex::zero()));
        m.restart();

        assert_eq!(m.stats(), Stats::default());
        assert_eq!((m.pc(), m.is_halted()), (0, false));
        assert!((0..32).all(|r| m.reg(Reg::new(r)) == 0));
        assert!((0..4096).step_by(4).all(|addr| m.mem().read_u32(addr) == Ok(0)));
        let unit = FftUnit::new(16, Scaling::HalfPerStage);
        assert_eq!(format!("{:?}", m.fft()), format!("{unit:?}"), "FFT unit at reset");
        let mut fresh = Machine::new(cfg);
        fresh.load_program(program.clone());
        assert_eq!(format!("{m:?}"), format!("{fresh:?}"), "indistinguishable from new");

        // The program is still loaded, and the rerun is the first run
        // again: the store misses the cold cache once more.
        assert_eq!(m.run(10_000), Ok(first));
        assert_eq!(m.reg(Reg::V0), 0x1234);
        assert_eq!(m.load_program(Program::from_instrs(&[Instr::Halt])), program);
    }

    #[test]
    fn custom_instructions_count_and_work() {
        use afft_isa::FftCfg;
        let mut m = machine();
        // Stage 8 points at address 0, run a full 8-point FFT group via
        // custom instructions, store to address 256.
        let x: Vec<Complex<Q15>> =
            (0..8).map(|i| Complex::new(Q15::from_f64(f64::from(i) / 32.0), Q15::ZERO)).collect();
        stage_input(&mut m, 0, &x).unwrap();

        let mut a = Asm::new();
        a.li(Reg::T0, 3);
        a.emit(Instr::Mtfft { rs: Reg::T0, sel: FftCfg::GroupSizeLog2 });
        a.li(Reg::S0, 0);
        for k in 0..4 {
            a.emit(Instr::Ldin { base: Reg::S0, offset: (8 * k) as i16 });
        }
        a.li(Reg::T1, 1); // module register
        for j in 1..=3 {
            a.li(Reg::T2, j);
            a.emit(Instr::But4 { stage: Reg::T2, module: Reg::T1 });
        }
        a.li(Reg::S1, 256);
        for k in 0..4 {
            a.emit(Instr::Stout { base: Reg::S1, offset: (8 * k) as i16 });
        }
        a.emit(Instr::Halt);
        m.load_program(a.assemble().unwrap());
        let s = m.run(10_000).unwrap();
        assert_eq!(s.ldin, 4);
        assert_eq!(s.stout, 4);
        assert_eq!(s.but4, 3);
        assert_eq!(s.table_loads(), 4);

        // Compare against the golden 8-point DFT (scaled by 1/8 by the
        // HalfPerStage datapath).
        let got = m.mem().read_complex_slice(256, 8).unwrap();
        let xf: Vec<afft_num::C64> = x.iter().map(|c| c.to_c64()).collect();
        let want = afft_core::reference::dft_naive(&xf, afft_core::Direction::Forward).unwrap();
        for (bin, (g, w)) in got.iter().zip(&want).enumerate() {
            let gf = g.to_c64() * 8.0;
            assert!(gf.dist(*w) < 0.02, "bin {bin}: {gf:?} vs {w:?}");
        }
    }
}
