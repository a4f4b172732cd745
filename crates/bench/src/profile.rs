//! A sampling host-time profiler for one window of the calling thread.
//!
//! [`sample_profile`] arms a `CLOCK_MONOTONIC` POSIX timer that sends
//! `SIGPROF` to this thread every [`INTERVAL`]; the handler reads the
//! interrupted instruction and frame pointers from the signal context and
//! walks the frame-pointer chain into a buffer allocated before the window
//! opens, so a sample allocates nothing and takes no lock. The walk reads
//! only between the interrupted stack pointer and the frame of
//! `sample_profile` itself, so a register that does not hold a frame
//! pointer ends a stack early instead of faulting. Frames resolve after the
//! window through `addr2line -i`, inlined functions included.
//!
//! Stacks are only as deep as the frame-pointer chain: build with
//! `RUSTFLAGS="-C force-frame-pointers=yes"` and the bench profile (release
//! with debug info). The sampler exists on Linux x86-64 only; elsewhere a
//! window runs unsampled and its profile is empty.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Time between two samples.
pub const INTERVAL: Duration = Duration::from_micros(100);

/// Frames kept per sample, the interrupted instruction included.
const MAX_FRAMES: usize = 96;

/// Words of the sample buffer (16 MiB, touched only as far as it fills):
/// a record is its frame count and frames, so this holds some 60 000
/// samples of 30 frames, 6 s at [`INTERVAL`]. Later samples are dropped
/// and counted.
const BUF_WORDS: usize = 2 << 20;

/// The stacks sampled over one window, each innermost frame first: the
/// interrupted instruction, then return addresses.
#[derive(Debug, Default)]
pub struct Profile {
    stacks: Vec<Vec<u64>>,
    dropped: u64,
}

impl Profile {
    /// Number of samples taken.
    pub fn samples(&self) -> usize {
        self.stacks.len()
    }

    /// The self and inclusive share of every function, by symbol, largest
    /// inclusive share first: self counts the samples whose innermost frame
    /// is the function, inclusive those with the function anywhere on the
    /// stack (once per sample).
    pub fn shares(&self) -> Vec<FrameShare> {
        let symbols = symbolize(self.stacks.iter().flatten().copied());
        let mut by_frame: HashMap<&str, (u64, u64)> = HashMap::new();
        let mut seen: Vec<&str> = Vec::new();
        for stack in &self.stacks {
            seen.clear();
            for (depth, addr) in stack.iter().enumerate() {
                // Inlined frames innermost first; a return address is
                // resolved one byte back, inside its call instruction.
                let key = if depth == 0 { *addr } else { addr - 1 };
                for (i, name) in symbols[&key].iter().enumerate() {
                    let entry = by_frame.entry(name.as_str()).or_default();
                    if depth == 0 && i == 0 {
                        entry.0 += 1;
                    }
                    if !seen.contains(&name.as_str()) {
                        seen.push(name);
                        entry.1 += 1;
                    }
                }
            }
        }
        let total = self.stacks.len().max(1) as f64;
        let mut rows: Vec<FrameShare> = by_frame
            .into_iter()
            .map(|(frame, (own, incl))| FrameShare {
                frame: frame.to_owned(),
                self_share: own as f64 / total,
                inclusive_share: incl as f64 / total,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.inclusive_share
                .total_cmp(&a.inclusive_share)
                .then_with(|| b.self_share.total_cmp(&a.self_share))
                .then_with(|| a.frame.cmp(&b.frame))
        });
        rows
    }

    /// The self share of every product module, largest first: each sample
    /// counts once, for the module of the innermost product frame on its
    /// stack (see `product_module`), or for `(no product frame)`. The
    /// shares sum to 1.
    pub fn module_shares(&self) -> Vec<(String, f64)> {
        let symbols = symbolize(self.stacks.iter().flatten().copied());
        let stacks = self.stacks.iter().map(|stack| {
            stack.iter().enumerate().flat_map(|(depth, addr)| {
                let key = if depth == 0 { *addr } else { addr - 1 };
                symbols[&key].iter().map(String::as_str)
            })
        });
        module_rollup(stacks)
    }

    /// A table of the `top` frames by inclusive share, the `top` by self
    /// share and the `top` product modules by self share (the layer view),
    /// in percent of the window's samples.
    pub fn table(&self, title: &str, top: usize) -> String {
        let rows = self.shares();
        let depth = self.stacks.iter().map(Vec::len).sum::<usize>() as f64
            / self.stacks.len().max(1) as f64;
        let mut out = format!(
            "\n{title}: {} samples at {} µs ({} dropped), {depth:.1} frames per stack\n",
            self.samples(),
            INTERVAL.as_micros(),
            self.dropped
        );
        let mut section = |heading: &str, rows: &[&FrameShare]| {
            let _ = writeln!(out, "{heading}\n{:>7} {:>7}  frame", "self%", "incl%");
            for r in rows {
                let _ = writeln!(
                    out,
                    "{:>7.1} {:>7.1}  {}",
                    100.0 * r.self_share,
                    100.0 * r.inclusive_share,
                    r.frame
                );
            }
        };
        let inclusive: Vec<&FrameShare> = rows.iter().take(top).collect();
        section("by inclusive share", &inclusive);
        let mut by_self: Vec<&FrameShare> = rows.iter().filter(|r| r.self_share > 0.0).collect();
        by_self.sort_by(|a, b| b.self_share.total_cmp(&a.self_share));
        by_self.truncate(top);
        section("by self share", &by_self);
        let _ = writeln!(out, "by product module (self)\n{:>7}  module", "self%");
        for (module, share) in self.module_shares().into_iter().take(top) {
            let _ = writeln!(out, "{:>7.1}  {module}", 100.0 * share);
        }
        out
    }
}

/// The module path of a product function's symbol: `c4h_simnet::queue` for
/// `c4h_simnet::queue::EventQueue<E>::pop` or `<c4h_simnet::flow::FlowNet
/// as Trait>::f`, `cloud4home::ops::fetch` for
/// `cloud4home::ops::fetch::<impl cloud4home::runtime::Cloud4Home>::f`,
/// `c4h_kvstore::wire` for `c4h_kvstore::wire::encode_shared::{{closure}}`.
/// `None` outside the product: std, dependencies and this harness.
pub fn product_module(symbol: &str) -> Option<&str> {
    let path = symbol.strip_prefix('<').unwrap_or(symbol);
    let product = path.starts_with("c4h_") || path.starts_with("cloud4home::");
    if !product || path.starts_with("c4h_bench") {
        return None;
    }
    // Leading snake-case segments are modules, up to the first type or
    // impl segment; when a function name comes first (a free function, or
    // its closure), it is the last of them and is dropped.
    let snake = |seg: &str| {
        !seg.is_empty()
            && seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    let mut end = 0;
    let mut last = 0;
    let mut stop = None;
    for seg in path.split("::") {
        if !snake(seg) {
            stop = Some(seg);
            break;
        }
        last = end;
        end += seg.len() + if end == 0 { 0 } else { 2 };
    }
    let free_function = stop.is_none_or(|seg| seg.starts_with('{'));
    let end = if free_function { last } else { end };
    (end > 0).then(|| &path[..end])
}

/// Self share by innermost product module over `stacks`, each the frame
/// names of one sample, innermost first (see [`Profile::module_shares`]).
fn module_rollup<'a, S, F>(stacks: S) -> Vec<(String, f64)>
where
    S: IntoIterator<Item = F>,
    F: IntoIterator<Item = &'a str>,
{
    let mut by_module: HashMap<&str, u64> = HashMap::new();
    let mut samples = 0u64;
    for stack in stacks {
        samples += 1;
        let module = stack
            .into_iter()
            .find_map(product_module)
            .unwrap_or("(no product frame)");
        *by_module.entry(module).or_default() += 1;
    }
    let total = samples.max(1) as f64;
    let mut rows: Vec<(String, f64)> = by_module
        .into_iter()
        .map(|(module, n)| (module.to_owned(), n as f64 / total))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// One function's share of a [`Profile`]'s samples.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameShare {
    /// The function's symbol, demangled, without its hash.
    pub frame: String,
    /// Share of samples interrupted inside the function itself.
    pub self_share: f64,
    /// Share of samples with the function anywhere on the stack.
    pub inclusive_share: f64,
}

/// Runs `f` while sampling this thread's stack every `INTERVAL` and
/// returns its result with the samples. Windows do not nest.
pub fn sample_profile<R>(f: impl FnOnce() -> R) -> (R, Profile) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        sampler::run(f)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        (f(), Profile::default())
    }
}

/// Resolves addresses of this executable to their function names through
/// `addr2line -i`, inlined frames innermost first. An address outside the
/// executable (libc, the vDSO) is named `(outside the binary)`, one
/// `addr2line` cannot resolve `?? (address)`.
fn symbolize(addrs: impl Iterator<Item = u64>) -> HashMap<u64, Vec<String>> {
    let mut wanted: Vec<u64> = addrs.flat_map(|a| [a, a.saturating_sub(1)]).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let exe = std::env::current_exe().ok();
    let base = exe.as_deref().and_then(load_base);
    let mut names: HashMap<u64, Vec<String>> = wanted
        .iter()
        .map(|&a| (a, vec!["(outside the binary)".to_owned()]))
        .collect();
    let (Some(exe), Some((lo, hi, base))) = (exe, base) else {
        return names;
    };
    let inside: Vec<u64> = wanted
        .into_iter()
        .filter(|a| (lo..hi).contains(a))
        .collect();
    let input: String = inside
        .iter()
        .map(|a| format!("{:#x}\n", a - base))
        .collect();
    let Ok(output) = run_addr2line(&exe, &input) else {
        return names;
    };
    // `-a` heads each address's block with the address itself; `-f` then
    // prints a function line and a location line per (inlined) frame.
    let mut lines = output.lines().peekable();
    for &addr in &inside {
        if lines.next().is_none() {
            break;
        }
        let mut frames = Vec::new();
        while let Some(line) = lines.next_if(|l| !l.starts_with("0x")) {
            frames.push(strip_hash(line));
            lines.next();
        }
        if frames.iter().all(|f| f == "??") {
            frames = vec![format!("?? ({addr:#x})")];
        }
        names.insert(addr, frames);
    }
    names
}

fn run_addr2line(exe: &std::path::Path, input: &str) -> std::io::Result<String> {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new("addr2line")
        .args(["-i", "-f", "-C", "-a", "-e"])
        .arg(exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdin = child.stdin.take().expect("piped");
    let input = input.to_owned();
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let out = child.wait_with_output()?;
    writer.join().expect("the writer does not panic")?;
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `frame` without a trailing `::h` and 16 hex digits.
fn strip_hash(frame: &str) -> String {
    match frame.rsplit_once("::h") {
        Some((head, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            head.to_owned()
        }
        _ => frame.to_owned(),
    }
}

/// The executable's mapped address range and its load base (the start of
/// its mapping at file offset 0), from `/proc/self/maps`.
fn load_base(exe: &std::path::Path) -> Option<(u64, u64, u64)> {
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    let exe = exe.to_str()?;
    let (mut lo, mut hi, mut base) = (u64::MAX, 0, None);
    for line in maps.lines().filter(|l| l.ends_with(exe)) {
        let mut cols = line.split_whitespace();
        let (start, end) = cols.next()?.split_once('-')?;
        let (start, end) = (
            u64::from_str_radix(start, 16).ok()?,
            u64::from_str_radix(end, 16).ok()?,
        );
        let offset = u64::from_str_radix(cols.nth(1)?, 16).ok()?;
        lo = lo.min(start);
        hi = hi.max(end);
        if offset == 0 {
            base = Some(base.map_or(start, |b: u64| b.min(start)));
        }
    }
    Some((lo, hi, base?))
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    //! The `SIGPROF` timer and handler. glibc's x86-64 layouts of
    //! `struct sigaction`, `struct sigevent`, `struct itimerspec` and
    //! `ucontext_t` are spelled out here; nothing else links them.

    use std::ffi::{c_int, c_long, c_void};
    use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

    use super::{Profile, BUF_WORDS, INTERVAL, MAX_FRAMES};

    const SIGPROF: c_int = 27;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;
    const CLOCK_MONOTONIC: c_int = 1;
    const SIGEV_THREAD_ID: c_int = 4;
    const SYS_GETTID: c_long = 186;

    /// Byte offsets into `ucontext_t` of `uc_mcontext.gregs[REG_RBP]`,
    /// `[REG_RSP]` and `[REG_RIP]`: the register file starts at 40.
    const CTX_RBP: usize = 40 + 10 * 8;
    const CTX_RSP: usize = 40 + 15 * 8;
    const CTX_RIP: usize = 40 + 16 * 8;

    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }

    #[repr(C)]
    struct SigEvent {
        value: usize,
        signo: c_int,
        notify: c_int,
        tid: c_int,
        pad: [c_int; 11],
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    #[repr(C)]
    struct ITimerSpec {
        interval: TimeSpec,
        value: TimeSpec,
    }

    extern "C" {
        fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn timer_create(clock: c_int, event: *mut SigEvent, timer: *mut *mut c_void) -> c_int;
        fn timer_settime(
            timer: *mut c_void,
            flags: c_int,
            new: *const ITimerSpec,
            old: *mut ITimerSpec,
        ) -> c_int;
        fn timer_delete(timer: *mut c_void) -> c_int;
        fn syscall(number: c_long, ...) -> c_long;
    }

    // The handler runs on the window's own thread, between two of its
    // instructions, so these need no cross-thread ordering: `Relaxed`
    // inside the handler, and `SeqCst` where `run` opens and closes the
    // window, which keeps the compiler from moving the buffer set-up past
    // the opening or the read-back before the closing.

    /// Whether a window is open: the handler records only then.
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    /// The window's buffer: records of `[frames, ip, return addresses…]`.
    static BUF: AtomicPtr<u64> = AtomicPtr::new(std::ptr::null_mut());
    static CAP: AtomicUsize = AtomicUsize::new(0);
    static LEN: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicU64 = AtomicU64::new(0);
    /// An address in `run`'s frame: every frame of the window lies below.
    static STACK_HI: AtomicU64 = AtomicU64::new(0);

    extern "C" fn on_sigprof(_sig: c_int, _info: *mut c_void, ctx: *mut c_void) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        let (buf, cap, len) = (
            BUF.load(Ordering::Relaxed),
            CAP.load(Ordering::Relaxed),
            LEN.load(Ordering::Relaxed),
        );
        if len + 1 + MAX_FRAMES > cap {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let hi = STACK_HI.load(Ordering::Relaxed);
        // SAFETY: the kernel passes a valid `ucontext_t` to an SA_SIGINFO
        // handler; the offsets are glibc's x86-64 layout. Frame words are
        // read only at 8-aligned addresses in [rsp, hi - 16), the live part
        // of this thread's stack, between the interrupted frame and `run`'s.
        // The buffer has room for this record (checked above), and only
        // this thread's handler writes it while the window is open.
        unsafe {
            let reg = |off: usize| (ctx as *const u8).add(off).cast::<u64>().read_unaligned();
            let (mut fp, sp, ip) = (reg(CTX_RBP), reg(CTX_RSP), reg(CTX_RIP));
            let rec = buf.add(len);
            let mut n = 0;
            rec.add(1).write(ip);
            n += 1;
            while n < MAX_FRAMES && fp >= sp && fp < hi.saturating_sub(16) && fp % 8 == 0 {
                let next = (fp as *const u64).read();
                let ret = (fp as *const u64).add(1).read();
                if ret == 0 {
                    break;
                }
                rec.add(1 + n).write(ret);
                n += 1;
                if next <= fp {
                    break;
                }
                fp = next;
            }
            rec.write(n as u64);
            LEN.store(len + 1 + n, Ordering::Relaxed);
        }
    }

    pub(super) fn run<R>(f: impl FnOnce() -> R) -> (R, Profile) {
        let marker = 0u8;
        let mut buf = vec![0u64; BUF_WORDS];
        BUF.store(buf.as_mut_ptr(), Ordering::Relaxed);
        CAP.store(buf.len(), Ordering::Relaxed);
        LEN.store(0, Ordering::Relaxed);
        DROPPED.store(0, Ordering::Relaxed);
        STACK_HI.store(std::ptr::addr_of!(marker) as u64, Ordering::Relaxed);
        let mut timer: *mut c_void = std::ptr::null_mut();
        let period = TimeSpec {
            sec: 0,
            nsec: INTERVAL.as_nanos() as i64,
        };
        // SAFETY: plain libc calls with structs laid out as glibc's. The
        // handler stays installed after the window, inert while `ACTIVE` is
        // false, so a signal still in flight when the timer is deleted
        // finds it rather than SIGPROF's default, which ends the process.
        // The timer signals only this thread (SIGEV_THREAD_ID).
        unsafe {
            let act = SigAction {
                handler: on_sigprof as extern "C" fn(c_int, *mut c_void, *mut c_void) as usize,
                mask: [0; 16],
                flags: SA_SIGINFO | SA_RESTART,
                restorer: 0,
            };
            assert_eq!(
                sigaction(SIGPROF, &act, std::ptr::null_mut()),
                0,
                "sigaction"
            );
            let mut event = SigEvent {
                value: 0,
                signo: SIGPROF,
                notify: SIGEV_THREAD_ID,
                tid: syscall(SYS_GETTID) as c_int,
                pad: [0; 11],
            };
            assert_eq!(
                timer_create(CLOCK_MONOTONIC, &mut event, &mut timer),
                0,
                "timer_create"
            );
            ACTIVE.store(true, Ordering::SeqCst);
            let spec = ITimerSpec {
                interval: period,
                value: period,
            };
            assert_eq!(
                timer_settime(timer, 0, &spec, std::ptr::null_mut()),
                0,
                "timer_settime"
            );
        }
        let out = std::hint::black_box(f());
        // SAFETY: `timer` is the timer created above.
        unsafe {
            ACTIVE.store(false, Ordering::SeqCst);
            timer_delete(timer);
        }
        std::hint::black_box(&marker);
        let len = LEN.load(Ordering::SeqCst);
        let mut stacks = Vec::new();
        let mut at = 0;
        while at < len {
            let n = buf[at] as usize;
            stacks.push(buf[at + 1..at + 1 + n].to_vec());
            at += 1 + n;
        }
        let dropped = DROPPED.load(Ordering::Relaxed);
        BUF.store(std::ptr::null_mut(), Ordering::SeqCst);
        (out, Profile { stacks, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_module_is_the_path_up_to_the_first_type_or_function() {
        let cases = [
            (
                "c4h_simnet::queue::EventQueue<E>::pop",
                Some("c4h_simnet::queue"),
            ),
            (
                "<c4h_simnet::flow::FlowNet as core::ops::drop::Drop>::drop",
                Some("c4h_simnet::flow"),
            ),
            (
                "cloud4home::ops::fetch::<impl cloud4home::runtime::Cloud4Home>::fetch_step",
                Some("cloud4home::ops::fetch"),
            ),
            (
                "c4h_kvstore::wire::encode_shared::{{closure}}",
                Some("c4h_kvstore::wire"),
            ),
            (
                "c4h_kvstore::records::stripe_checksum",
                Some("c4h_kvstore::records"),
            ),
            (
                "cloud4home::runtime::Cloud4Home::step",
                Some("cloud4home::runtime"),
            ),
            ("c4h_bench::TraceReplay::run", None),
            ("alloc::vec::Vec<T,A>::push", None),
            ("<alloc::vec::Vec<T> as core::clone::Clone>::clone", None),
            ("(outside the binary)", None),
        ];
        for (symbol, module) in cases {
            assert_eq!(product_module(symbol), module, "{symbol}");
        }
    }

    #[test]
    fn rollup_charges_each_sample_to_its_innermost_product_module() {
        let stacks: [&[&str]; 5] = [
            // Inside std, called from the flow engine: the flow engine's.
            &[
                "core::ptr::drop_in_place",
                "c4h_simnet::flow::FlowNet::advance_into",
                "cloud4home::runtime::Cloud4Home::step",
            ],
            &["c4h_simnet::flow::FlowNet::reallocate", "main"],
            &[
                "cloud4home::runtime::Cloud4Home::pump",
                "cloud4home::runtime::Cloud4Home::step",
            ],
            &["c4h_bench::TraceReplay::run", "main"],
            &[],
        ];
        let rows = module_rollup(stacks.iter().map(|s| s.iter().copied()));
        assert_eq!(
            rows,
            vec![
                ("(no product frame)".to_owned(), 0.4),
                ("c4h_simnet::flow".to_owned(), 0.4),
                ("cloud4home::runtime".to_owned(), 0.2),
            ]
        );
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
