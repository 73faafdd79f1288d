//! Child processes: run to completion with per-process peak memory, or
//! keep one alive under a guard that always stops it.
//!
//! The standard library reports no resource usage for a child, so
//! children are reaped with `wait4(2)`, which returns the child's own
//! `rusage` (unlike `getrusage(RUSAGE_CHILDREN)`, which folds every
//! child ever reaped into one maximum).

use std::io::{self, Read};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of `<sys/resource.h>` on 64-bit Linux: two
/// `timeval`s, then fourteen `long`s, the first of which is
/// `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    _utime: [i64; 2],
    _stime: [i64; 2],
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How a child ended.
pub struct Exit {
    /// The exit status.
    pub status: ExitStatus,
    /// The child's peak resident set size, in KiB.
    pub max_rss_kb: u64,
}

/// A command run to completion.
pub struct Run {
    /// How it ended.
    pub exit: Exit,
    /// Spawn to exit.
    pub wall: Duration,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
}

fn pid_of(child: &Child) -> i32 {
    i32::try_from(child.id()).expect("Linux pids fit in i32")
}

/// Waits for `child` and returns its status and peak RSS. Takes the
/// child by value: once reaped here, the standard library must never
/// wait on (or signal) that pid again.
fn reap(child: Child) -> io::Result<Exit> {
    let pid = pid_of(&child);
    let mut status = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as wait4 expects; `pid` is a child of this process that nothing
        // else has reaped, because `reap` owns its only `Child`.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    Ok(Exit {
        status: ExitStatus::from_raw(status),
        max_rss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
    })
}

/// Runs `command` to completion with stdin closed, capturing stdout;
/// stderr passes through.
pub fn run(command: &mut Command) -> io::Result<Run> {
    let start = Instant::now();
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let exit = reap(child)?;
    read?;
    Ok(Run {
        exit,
        wall: start.elapsed(),
        stdout,
    })
}

/// A long-lived child that is sent SIGTERM and reaped when dropped, so
/// no exit path of the benchmark leaves it running.
pub struct Guard(Option<Child>);

impl Guard {
    /// Takes ownership of a spawned child.
    pub fn new(child: Child) -> Self {
        Guard(Some(child))
    }

    /// Sends SIGTERM and waits for the child to exit.
    pub fn terminate(mut self) -> io::Result<Exit> {
        let child = self
            .0
            .take()
            .expect("a guard holds its child until dropped");
        sigterm(&child);
        reap(child)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(child) = self.0.take() {
            sigterm(&child);
            let _ = reap(child);
        }
    }
}

fn sigterm(child: &Child) {
    // SAFETY: kill(2) takes no pointers; the pid belongs to a child this
    // process has not reaped yet, so it cannot name another process.
    unsafe {
        kill(pid_of(child), SIGTERM);
    }
}
