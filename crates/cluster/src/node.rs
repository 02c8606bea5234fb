//! The live node process: `ftcolor node [--codec json|binary]`.
//!
//! One OS process per ring node. Protocol logic lives entirely in
//! [`crate::NodeCore`]; this module is the I/O shell around it, in the
//! Gossip-Glomers / Maelstrom idiom:
//!
//! * stdin — frames from the orchestrator's router, line-delimited JSON
//!   by default or length-prefixed binary records under
//!   `--codec binary` (first frame is always `init`);
//! * stdout — frames back to the router in the same codec, each batch
//!   built in a pooled buffer and flushed with a single write;
//! * a reader thread feeds stdin payloads into an mpsc channel so the
//!   main loop can multiplex frame arrival against the retransmit
//!   timer with `recv_timeout`;
//! * EOF on stdin (the orchestrator closed the pipe or died) is the
//!   shutdown signal — a node never outlives its orchestrator, which
//!   is half of the no-zombie story (the other half is the
//!   orchestrator's kill-on-drop guards).
//!
//! The codec arrives on the command line, not in `init`, because `init`
//! itself already travels encoded. Timing knobs arrive in the `init`
//! frame: `rto_ms` is the retransmit period for unanswered
//! `snapshot_req`s; `pace_ms` is an artificial pause before each round
//! start, used by fault-injection runs to stretch the run so a SIGKILL
//! can land mid-protocol.

use std::io::{self, BufRead, Write as _};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ftcolor_core::with_ring_coloring;
use ftcolor_model::Algorithm;
use ftcolor_net::wire;
use ftcolor_net::{Body, Codec, Frame, Init, WirePool};
use serde::{Deserialize, Serialize};

use crate::core::NodeCore;

/// Runs one node to completion: reads `init` from stdin, speaks the
/// register protocol in `codec` until stdin closes.
///
/// # Errors
///
/// Returns a message when stdin closes before `init`, the first frame
/// is not an `init`, or the algorithm name is unknown.
pub fn node_main(codec: Codec) -> Result<(), String> {
    let first = match codec {
        Codec::Binary => {
            let mut stdin = io::stdin().lock();
            let mut buf = Vec::new();
            let got = wire::read_framed(&mut stdin, &mut buf)
                .map_err(|e| format!("node: reading init: {e}"))?;
            if !got {
                return Err("node: stdin closed before init".into());
            }
            wire::decode_frame(&buf).map_err(|e| format!("node: bad init frame: {e}"))?
        }
        Codec::Json => {
            let mut line = String::new();
            io::stdin()
                .lock()
                .read_line(&mut line)
                .map_err(|e| format!("node: reading init: {e}"))?;
            if line.trim().is_empty() {
                return Err("node: stdin closed before init".into());
            }
            Frame::decode(line.trim()).map_err(|e| format!("node: bad init frame: {e}"))?
        }
    };
    let Body::Init(init) = first.body else {
        return Err(format!(
            "node: first frame must be `init`, got `{}`",
            first.body.kind()
        ));
    };
    with_ring_coloring!(init.alg.as_str(), alg => run_node(alg, &init, codec),
        else Err(format!("node: unknown algorithm `{}`", init.alg)))
}

fn run_node<A>(alg: &A, init: &Init, codec: Codec) -> Result<(), String>
where
    A: Algorithm<Input = u64>,
    A::Reg: Serialize + Deserialize,
    A::Output: Serialize,
{
    let mut core = NodeCore::new(alg, init.node, init.neighbors.clone(), init.input);
    let pace = Duration::from_millis(init.pace_ms);
    let rto = Duration::from_millis(init.rto_ms.max(1));
    let mut pool = WirePool::default();

    // Reader thread: stdin payloads -> channel; dropping the sender on
    // EOF turns into `RecvTimeoutError::Disconnected` below.
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    thread::spawn(move || match codec {
        Codec::Binary => {
            let mut stdin = io::stdin().lock();
            let mut buf = Vec::new();
            while let Ok(true) = wire::read_framed(&mut stdin, &mut buf) {
                if tx.send(std::mem::take(&mut buf)).is_err() {
                    break;
                }
            }
        }
        Codec::Json => {
            for line in io::stdin().lock().lines() {
                let Ok(line) = line else { break };
                if tx.send(line.into_bytes()).is_err() {
                    break;
                }
            }
        }
    });

    if !pace.is_zero() {
        thread::sleep(pace);
    }
    emit(&core.start(), codec, &mut pool)?;
    let mut next_rto = Instant::now() + rto;
    loop {
        let timeout = next_rto.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok(payload) => {
                // Robustness: a torn or garbage payload is dropped like
                // a corrupt packet, never a crash.
                let frame = match codec {
                    Codec::Binary => match wire::decode_frame(&payload) {
                        Ok(f) => f,
                        Err(_) => continue,
                    },
                    Codec::Json => {
                        let Ok(text) = std::str::from_utf8(&payload) else {
                            continue;
                        };
                        let trimmed = text.trim();
                        if trimmed.is_empty() {
                            continue;
                        }
                        match Frame::decode(trimmed) {
                            Ok(f) => f,
                            Err(_) => continue,
                        }
                    }
                };
                let before = core.round();
                let out = core.on_frame(&frame);
                if core.round() > before && !pace.is_zero() {
                    thread::sleep(pace); // pause between rounds
                }
                emit(&out, codec, &mut pool)?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                emit(&core.retransmits(), codec, &mut pool)?;
                next_rto = Instant::now() + rto;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Writes a batch of frames to stdout — JSON lines or length-prefixed
/// binary records — built in one pooled buffer and flushed with a
/// single write. A broken pipe means the orchestrator is gone: exit
/// quietly.
fn emit(frames: &[Frame], codec: Codec, pool: &mut WirePool) -> Result<(), String> {
    if frames.is_empty() {
        return Ok(());
    }
    let mut buf = pool.acquire();
    for f in frames {
        match codec {
            Codec::Binary => wire::append_framed(f, &mut buf),
            Codec::Json => {
                f.encode_into(&mut buf);
                buf.push(b'\n');
            }
        }
    }
    let mut out = io::stdout().lock();
    let ok = out.write_all(&buf).is_ok() && out.flush().is_ok();
    pool.release(buf);
    if ok {
        Ok(())
    } else {
        Err("node: stdout closed".into())
    }
}
