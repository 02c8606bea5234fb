//! The live node process: `ftcolor node`.
//!
//! One OS process per ring node. Protocol logic lives entirely in
//! [`crate::NodeCore`] and the [`ftcolor_net::protocol`] machine it
//! owns; this module is the I/O shell around it, in the Gossip-Glomers
//! / Maelstrom idiom:
//!
//! * input (stdin) — frames from the orchestrator's router, one JSON
//!   frame per line (frames before `init` are dropped);
//! * output (stdout) — frames back to the router as JSON lines, each
//!   batch built in a pooled buffer and flushed with a single write;
//! * a reader thread feeds input lines into an mpsc channel so the
//!   main loop can multiplex frame arrival against the retransmit
//!   timer with `recv_timeout`;
//! * EOF on input (the orchestrator closed the pipe or died) is the
//!   shutdown signal — a node never outlives its orchestrator, which
//!   is half of the no-zombie story (the other half is the
//!   orchestrator's kill-on-drop guards).
//!
//! Timing knobs arrive in the `init` frame: `rto_ms` is the retransmit period for unanswered
//! `snapshot_req`s; `pace_ms` is an artificial pause before each round
//! start, used by fault-injection runs to stretch the run so a SIGKILL
//! can land mid-protocol.

use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ftcolor_core::with_ring_coloring;
use ftcolor_model::Algorithm;
use ftcolor_net::{Body, Frame, Init, WirePool};
use serde::{Deserialize, Serialize};

use crate::core::{check_init, NodeCore};
use crate::pipe::{decode_line, read_lines, write_lines};

/// Runs one node to completion: reads `init` from `input`, speaks the
/// register protocol in JSON lines on `input` and `output` until `input`
/// closes. The CLI passes stdin and stdout.
///
/// Every frame is untrusted: a torn or garbage line, any frame before
/// `init`, a frame whose register does not decode, a second `init` or a
/// frame from a stranger is dropped without a reply (the sender's
/// retransmit recovers a frame that mattered), so a node whose `init`
/// is withheld stays silent. An oversized line ends the stream like EOF.
///
/// # Errors
///
/// Returns a message when `input` closes before `init`, the first `init`
/// does not describe a ring node, the algorithm name is unknown, or
/// `output` closes.
pub fn node_main(input: impl BufRead + Send + 'static, output: impl Write) -> Result<(), String> {
    // Reader thread: input lines -> channel; dropping the sender at EOF
    // turns into `RecvTimeoutError::Disconnected` in the loop.
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    thread::spawn(move || read_lines(input, |line| tx.send(line).is_ok()));
    let (dest, init) = rx
        .iter()
        .find_map(|line| match decode_line(&line) {
            Ok(Some(Frame {
                dest,
                body: Body::Init(init),
                ..
            })) => Some((dest, init)),
            _ => None,
        })
        .ok_or("node: input closed before init")?;
    check_init(dest, &init).map_err(|e| format!("node: {e}"))?;
    with_ring_coloring!(init.alg.as_str(), alg => run_node(alg, &init, &rx, output),
        else Err(format!("node: unknown algorithm `{}`", init.alg)))
}

fn run_node<A>(
    alg: &A,
    init: &Init,
    rx: &mpsc::Receiver<Vec<u8>>,
    mut output: impl Write,
) -> Result<(), String>
where
    A: Algorithm<Input = u64>,
    A::Reg: Serialize + Deserialize,
    A::Output: Serialize,
{
    let mut core = NodeCore::new(alg, init.node, init.neighbors.clone(), init.input);
    let pace = Duration::from_millis(init.pace_ms);
    let rto = Duration::from_millis(init.rto_ms.max(1));
    let mut pool = WirePool::default();
    // A broken pipe means the orchestrator is gone: exit quietly.
    let mut emit = |frames: &[Frame]| {
        let written = write_lines(frames, &mut pool, &mut output);
        written.map_err(|_| "node: output closed".to_string())
    };

    if !pace.is_zero() {
        thread::sleep(pace);
    }
    emit(&core.start())?;
    let mut next_rto = Instant::now() + rto;
    loop {
        let timeout = next_rto.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok(line) => {
                // Robustness: a torn or garbage line, or a register that
                // does not decode, is dropped like a corrupt packet,
                // never a crash.
                let Ok(Some(frame)) = decode_line(&line) else {
                    continue;
                };
                let before = core.round();
                let Ok(out) = core.on_frame(&frame) else {
                    continue;
                };
                if core.round() > before && !pace.is_zero() {
                    thread::sleep(pace); // pause between rounds
                }
                emit(&out)?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                emit(&core.retransmits())?;
                next_rto = Instant::now() + rto;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}
