//! The calibration kernel: a fixed piece of work that measures how fast
//! the machine runs code like the flow's at this moment.
//!
//! On a shared host the speed of one core drifts by tens of percent over
//! seconds and minutes (other tenants on the same cores, caches and
//! memory), and CPU time of the same compile drifts with it. The kernel
//! is a small swap-move annealer over a fixed random netlist: branchy
//! integer code chasing indices through a few hundred kilobytes, like
//! the flow's placer, router and simulator. It runs before every timed
//! compile; a compile's CPU time divided by the kernel's time around it
//! is the compile's cost in machine-independent units, which
//! [`NOMINAL_MS`] scales back to milliseconds.
//!
//! The kernel belongs to the benchmark, not to the program, so a change
//! to the program never changes it; changing it changes the unit of
//! every time metric and makes earlier results incomparable.

use crate::thread_cpu_ms;

/// Cells of the calibration netlist.
const CELLS: usize = 4096;
/// Nets of the calibration netlist, 2 to 5 pins each.
const NETS: usize = 6000;
/// Side of the square placement grid.
const SIDE: u32 = 64;
/// Swap moves per kernel run.
const MOVES: usize = 4000;

/// The kernel's CPU time, in ms, on the machine the benchmark was tuned
/// on when it ran at its usual speed. Normalized times are in ms of that
/// machine.
pub const NOMINAL_MS: f64 = 2.5;

/// The kernel's state: a placement of the calibration netlist.
pub struct Kernel {
    pos: Vec<u32>,
    cell_nets: Vec<Vec<u32>>,
    nets: Vec<Vec<u32>>,
    touched: Vec<u32>,
    rng: u64,
}

impl Kernel {
    /// The fixed netlist, placed in cell order.
    pub fn new() -> Kernel {
        let mut k = Kernel {
            pos: (0..CELLS as u32).collect(),
            cell_nets: vec![Vec::new(); CELLS],
            nets: Vec::with_capacity(NETS),
            touched: Vec::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        for n in 0..NETS as u32 {
            let pins = 2 + k.next() % 4;
            let pins: Vec<u32> = (0..pins)
                .map(|_| (k.next() % CELLS as u64) as u32)
                .collect();
            for &c in &pins {
                k.cell_nets[c as usize].push(n);
            }
            k.nets.push(pins);
        }
        k
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Half-perimeter wirelength of the nets in `touched`.
    fn wirelength(&self) -> u32 {
        self.touched
            .iter()
            .map(|&n| {
                let (mut x0, mut x1, mut y0, mut y1) = (u32::MAX, 0, u32::MAX, 0);
                for &c in &self.nets[n as usize] {
                    let p = self.pos[c as usize];
                    let (x, y) = (p % SIDE, p / SIDE);
                    x0 = x0.min(x);
                    x1 = x1.max(x);
                    y0 = y0.min(y);
                    y1 = y1.max(y);
                }
                x1 - x0 + y1 - y0
            })
            .sum()
    }

    /// One kernel run: a fixed number of swap moves, each kept if it
    /// does not lengthen the touched nets by more than a random slack.
    /// Returns its CPU time in ms.
    pub fn run(&mut self) -> f64 {
        let t = thread_cpu_ms();
        for _ in 0..MOVES {
            let r = self.next();
            let a = (r % CELLS as u64) as usize;
            let b = ((r >> 32) % CELLS as u64) as usize;
            self.touched.clear();
            self.touched.extend(&self.cell_nets[a]);
            self.touched.extend(&self.cell_nets[b]);
            let before = self.wirelength();
            self.pos.swap(a, b);
            if self.wirelength() > before + (r >> 60) as u32 {
                self.pos.swap(a, b);
            }
        }
        std::hint::black_box(&self.pos);
        thread_cpu_ms() - t
    }
}
