//! The reference kernel: a fixed piece of work, independent of the
//! repository's code, timed just before and just after every step. The
//! shared host this benchmark runs on changes speed for minutes at a time
//! (up to ~40% on the same binary and inputs), which CPU time does not
//! remove. Times taken next to the kernel's are rescaled to the speed at
//! which the kernel takes [`NOMINAL_S`], so the host's drift cancels and
//! a change to the program shows in full: the kernel calls nothing of it.
//!
//! The kernel mixes what a simulator step does — a priority queue, a hash
//! map of small heap buffers, allocation and freeing — because on the
//! measured host that mix tracked the steps' slowdowns better than a pure
//! arithmetic loop or random memory reads.
//!
//! It runs in a child process (this program, started with [`CHILD_ARG`])
//! that lives as long as the benchmark: its heap then stays out of the
//! benchmark's `peak_rss_mb`, the program's own heap cannot change its
//! speed, and its heap stays warm between timings (a fresh process would
//! pay for new pages in every timing).

use crate::cpu_seconds;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The argument that makes this program serve kernel timings: one line
/// with the CPU seconds for each line read, until its input ends.
pub const CHILD_ARG: &str = "--time-reference-kernel";

/// CPU seconds a timing takes at the reference speed: about its median on
/// the 2-vCPU Xeon VM the bounds in `BENCHMARK.json` were set on.
pub const NOMINAL_S: f64 = 0.65;

/// Kernel runs per timing. One run reads the host's speed over only
/// ~0.15 s; over ten runs per workload on the measured host, rescaling
/// by four-run timings left the smallest spread between runs.
const RUNS_PER_TIMING: usize = 4;

/// Operations of one kernel run.
const OPS: u64 = 300_000;
/// Key space of the map: 2^20 keys, so it grows to ~250k entries, tens of
/// MB with their buffers.
const KEY_MASK: u64 = (1 << 20) - 1;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One run of the kernel; returns a checksum so nothing is optimised away.
fn kernel() -> u64 {
    let mut s = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0u64;
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..OPS {
        let k = xorshift(&mut s);
        heap.push(Reverse(k));
        map.insert(k & KEY_MASK, vec![i as u8; 16 + (k & 63) as usize]);
        if i % 3 == 0 {
            if let Some(Reverse(x)) = heap.pop() {
                acc ^= x;
            }
        }
        if let Some(b) = map.get(&(xorshift(&mut s) & KEY_MASK)) {
            acc = acc.wrapping_add(b.len() as u64);
        }
    }
    acc
}

/// CPU seconds of [`RUNS_PER_TIMING`] kernel runs.
fn time_here() -> f64 {
    let c0 = cpu_seconds();
    for _ in 0..RUNS_PER_TIMING {
        black_box(kernel());
    }
    cpu_seconds() - c0
}

/// The factor that turns CPU seconds measured between a timing of
/// `before` and one of `after` into reference seconds.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}

/// The child's side: one untimed run for the heap's first pages, then a
/// timing per request.
pub fn child_main() {
    black_box(kernel());
    let mut out = std::io::stdout();
    for request in std::io::stdin().lock().lines() {
        if request.is_err()
            || writeln!(out, "{}", time_here())
                .and_then(|()| out.flush())
                .is_err()
        {
            break;
        }
    }
}

/// The child process that times the kernel. Dropping it ends the child
/// and waits for it.
pub struct Reference {
    child: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Reference {
    pub fn start() -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg(CHILD_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the reference kernel: {e}"))?;
        let requests = child.stdin.take().expect("the child's stdin is piped");
        let replies = child.stdout.take().expect("the child's stdout is piped");
        Ok(Self {
            child,
            requests: Some(requests),
            replies: BufReader::new(replies),
        })
    }

    /// CPU seconds of one timing, made now.
    pub fn time(&mut self) -> Result<f64, String> {
        let requests = self.requests.as_mut().expect("open until drop");
        writeln!(requests, "time")
            .and_then(|()| requests.flush())
            .map_err(|e| format!("reference kernel: {e}"))?;
        let mut reply = String::new();
        self.replies
            .read_line(&mut reply)
            .map_err(|e| format!("reference kernel: {e}"))?;
        reply
            .trim()
            .parse()
            .map_err(|_| format!("reference kernel replied {reply:?}"))
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing the child's input ends its loop.
        drop(self.requests.take());
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_the_nominal_speed_and_follows_the_host() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        // A host running everything at half speed: the kernel takes twice
        // as long, and a step's CPU time counts half.
        assert_eq!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        assert_eq!(scale(NOMINAL_S, 3.0 * NOMINAL_S), 0.5);
    }

    #[test]
    fn time_here_measures_work() {
        assert!(time_here() > 0.0);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
