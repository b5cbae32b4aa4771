//! The wire protocol: line-delimited JSON over a local Unix socket.
//!
//! One request per line, one response line per request, dependency-free
//! on both sides (the vc-json codec is the whole stack). Requests:
//!
//! ```text
//! {"op":"submit","spec":{...}}   -> {"ok":true,"job":N,"sweep_id":"..","cache_hit":b,"deduped":b}
//! {"op":"poll","job":N}          -> {"ok":true,"job":N,"state":"..","preemptions":..,
//!                                    "completed_chunks":..,"num_chunks":..}
//! {"op":"result","job":N}        -> {"ok":true,"payload":".."}
//! {"op":"stats"}                 -> {"ok":true,"report":{..vc-serve-report/v1..}}
//! {"op":"shutdown"}              -> {"ok":true}   (stops the listener, not the service)
//! ```
//!
//! Every failure is `{"ok":false,"error":".."}`; the connection stays
//! usable, except after a request line longer than 64 KiB or not UTF-8:
//! that line is answered with an error and the connection closes. Connections are handled serially — the protocol is a local
//! control plane, not a throughput path.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vc_json::{obj, Json, Value};

use crate::scheduler::SweepService;
use crate::spec::SweepSpec;

/// The longest request line read, line ending excluded. The largest real
/// request, a submit, is about 300 bytes.
const MAX_LINE: usize = 64 * 1024;

/// A running protocol listener bound to a socket path.
pub struct ServeDaemon {
    handle: Option<std::thread::JoinHandle<()>>,
    socket: PathBuf,
}

impl ServeDaemon {
    /// Binds `socket` (unlinking any stale file) and serves `service`
    /// on a background thread until a `shutdown` op arrives.
    pub fn bind(service: Arc<SweepService>, socket: &Path) -> std::io::Result<Self> {
        if socket.exists() {
            std::fs::remove_file(socket)?;
        }
        if let Some(parent) = socket.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let listener = UnixListener::bind(socket)?;
        let handle = std::thread::spawn(move || accept_loop(&listener, &service));
        Ok(Self {
            handle: Some(handle),
            socket: socket.to_path_buf(),
        })
    }

    /// The socket path the daemon is bound to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Waits for the listener to stop (after a `shutdown` op) and
    /// removes the socket file.
    pub fn join(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        // A dropped-without-join daemon leaves the listener thread
        // blocked in accept; poke it so the thread can observe the
        // closed-world shutdown path on its own socket.
        if let Some(handle) = self.handle.take() {
            if let Ok(mut conn) = UnixStream::connect(&self.socket) {
                let _ = conn.write_all(b"{\"op\":\"shutdown\"}\n");
            }
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One-shot client helper: connects to `socket`, sends `line`, returns
/// the single response line. Used by the drill and by scripts.
pub fn request(socket: &Path, line: &str) -> std::io::Result<String> {
    let mut conn = UnixStream::connect(socket)?;
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")?;
    conn.shutdown(std::net::Shutdown::Write)?;
    let mut reader = BufReader::new(conn);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    while response.ends_with('\n') || response.ends_with('\r') {
        response.pop();
    }
    Ok(response)
}

fn accept_loop(listener: &UnixListener, service: &SweepService) {
    for conn in listener.incoming() {
        let Ok(conn) = conn else {
            return;
        };
        if handle_connection(conn, service) {
            return;
        }
    }
}

/// Serves one connection to EOF; returns true when a shutdown op was
/// processed (the accept loop then exits).
fn handle_connection(conn: UnixStream, service: &SweepService) -> bool {
    let Ok(write_half) = conn.try_clone() else {
        return false;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(conn);
    let mut saw_shutdown = false;
    while let Some(line) = next_line(&mut reader) {
        let (response, close) = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => {
                let (response, is_shutdown) = respond(&line, service);
                saw_shutdown |= is_shutdown;
                (response, is_shutdown)
            }
            // The rest of the stream cannot be framed: answer, then close.
            Err(msg) => (error_line(&msg), true),
        };
        if writer.write_all(response.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
            || close
        {
            break;
        }
    }
    saw_shutdown
}

/// Reads the next request line without its line ending, buffering at
/// most [`MAX_LINE`] + 1 bytes. `None` at end of stream or on a read
/// error; `Some(Err(_))` for a line that is too long or not UTF-8.
fn next_line(reader: &mut impl BufRead) -> Option<Result<String, String>> {
    let mut buf = Vec::new();
    match reader
        .by_ref()
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', &mut buf)
    {
        Ok(0) | Err(_) => return None,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE {
        return Some(Err(format!("request line longer than {MAX_LINE} bytes")));
    }
    Some(String::from_utf8(buf).map_err(|_| "request line is not UTF-8".to_string()))
}

fn error_line(msg: &str) -> String {
    vc_json::line(&obj! { "ok": false, "error": msg })
}

/// Computes the response line for one request line; the bool marks a
/// shutdown request.
fn respond(line: &str, service: &SweepService) -> (String, bool) {
    let req = match vc_json::parse(line) {
        Ok(req) => req,
        Err(e) => return (error_line(&format!("bad request: {e}")), false),
    };
    let Some(op) = req.get("op").and_then(Value::as_str) else {
        return (error_line("missing op"), false);
    };
    let job_arg = || -> Result<u64, String> {
        req.get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| "missing job".to_string())
    };
    match op {
        "submit" => {
            let Some(spec_value) = req.get("spec") else {
                return (error_line("missing spec"), false);
            };
            let spec = match SweepSpec::from_json(spec_value) {
                Ok(spec) => spec,
                Err(e) => return (error_line(&e.to_string()), false),
            };
            match service.submit(&spec) {
                Ok(sub) => (
                    vc_json::line(&obj! {
                        "ok": true, "job": sub.job, "sweep_id": sub.sweep_id.to_string(),
                        "cache_hit": sub.cache_hit, "deduped": sub.deduped,
                    }),
                    false,
                ),
                Err(e) => (error_line(&e.to_string()), false),
            }
        }
        "poll" => {
            let job = match job_arg() {
                Ok(job) => job,
                Err(msg) => return (error_line(&msg), false),
            };
            match service.status(job) {
                Ok(s) => (
                    vc_json::line(&obj! {
                        "ok": true, "job": s.job, "state": s.state.name(),
                        "preemptions": s.preemptions, "completed_chunks": s.completed_chunks,
                        "num_chunks": s.num_chunks,
                    }),
                    false,
                ),
                Err(e) => (error_line(&e.to_string()), false),
            }
        }
        "result" => {
            let job = match job_arg() {
                Ok(job) => job,
                Err(msg) => return (error_line(&msg), false),
            };
            match service.result(job) {
                Ok(payload) => {
                    // The payload escaped straight into one exact-size line.
                    const HEAD: &str = "{\"ok\":true,\"payload\":\"";
                    let len = HEAD.len() + vc_json::escaped_len(&payload) + 2;
                    let mut line = String::with_capacity(len);
                    line.push_str(HEAD);
                    vc_json::escape_into(&mut line, &payload);
                    line.push_str("\"}");
                    (line, false)
                }
                Err(e) => (error_line(&e.to_string()), false),
            }
        }
        "stats" => {
            let report = Json::Raw(service.report_json());
            (vc_json::line(&obj! { "ok": true, "report": report }), false)
        }
        "shutdown" => (vc_json::line(&obj! { "ok": true }), true),
        other => (error_line(&format!("unknown op: {other}")), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServeConfig;
    use crate::spec::{AlgorithmRef, InstanceRef};

    #[test]
    fn protocol_round_trip_over_the_socket() {
        let root = std::env::temp_dir().join(format!("vc-serve-sock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service = Arc::new(
            SweepService::start(&ServeConfig {
                threads: 2,
                store_dir: root.join("store"),
                spool_dir: root.join("spool"),
                max_store_entries: None,
            })
            .expect("start"),
        );
        let socket = root.join("serve.sock");
        let daemon = ServeDaemon::bind(Arc::clone(&service), &socket).expect("bind");

        let spec = SweepSpec::new(
            InstanceRef::FullBinaryTree { n: 255, seed: 4 },
            AlgorithmRef::LeafDistance,
        );
        let line = format!("{{\"op\":\"submit\",\"spec\":{}}}", spec.to_json_line());
        let response = request(&socket, &line).expect("submit");
        assert_eq!(
            response,
            "{\"ok\":true,\"job\":1,\"sweep_id\":\"3ecd7dc1fff332a1\",\"cache_hit\":false,\
             \"deduped\":false}"
        );
        let doc = vc_json::parse(&response).expect("response parses");
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
        let job = doc.get("job").and_then(Value::as_u64).expect("job id");

        // Poll until done, over fresh connections each time (results
        // arrive via the service's own condvar, not protocol polling).
        service
            .wait_job(job, std::time::Duration::from_secs(120), |s| {
                matches!(
                    s.state,
                    crate::scheduler::JobState::Done { .. } | crate::scheduler::JobState::Failed
                )
            })
            .expect("job finishes");
        let response =
            request(&socket, &format!("{{\"op\":\"poll\",\"job\":{job}}}")).expect("poll");
        assert_eq!(
            response,
            format!(
                "{{\"ok\":true,\"job\":{job},\"state\":\"done\",\"preemptions\":0,\
                 \"completed_chunks\":4,\"num_chunks\":4}}"
            )
        );
        let doc = vc_json::parse(&response).expect("poll parses");
        assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));

        let response =
            request(&socket, &format!("{{\"op\":\"result\",\"job\":{job}}}")).expect("result");
        let doc = vc_json::parse(&response).expect("result parses");
        let payload = doc.get("payload").and_then(Value::as_str).expect("payload");
        let ckpt = vc_engine::SweepCheckpoint::from_json(payload).expect("payload decodes");
        assert!(ckpt.is_complete(), "the payload is a complete checkpoint");
        // The reply line keeps the bytes of the per-character escaper.
        let stored = service.result(job).expect("stored result");
        assert_eq!(payload, stored);
        assert_eq!(
            response,
            format!(
                "{{\"ok\":true,\"payload\":\"{}\"}}",
                reference_escape(&stored)
            )
        );

        let response = request(&socket, "{\"op\":\"stats\"}").expect("stats");
        let doc = vc_json::parse(&response).expect("stats parses");
        assert_eq!(
            doc.get("report")
                .and_then(|r| r.get("schema"))
                .and_then(Value::as_str),
            Some(crate::scheduler::REPORT_SCHEMA)
        );

        let response = request(&socket, "{\"op\":\"nope\"}").expect("unknown op answered");
        assert_eq!(response, "{\"ok\":false,\"error\":\"unknown op: nope\"}");
        let doc = vc_json::parse(&response).expect("error parses");
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));

        let response = request(&socket, "{\"op\":\"shutdown\"}").expect("shutdown");
        assert_eq!(response, "{\"ok\":true}");
        daemon.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The per-character escaper the reply line was first written with.
    fn reference_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out
    }

    /// Sends `bytes` as-is on a fresh connection and returns everything
    /// the daemon answers before it closes the connection.
    fn raw_request(socket: &Path, bytes: &[u8]) -> String {
        let mut conn = UnixStream::connect(socket).expect("connect");
        // The daemon stops reading after `MAX_LINE` + 1 bytes and closes,
        // so the tail of an over-long write may fail with a broken pipe.
        let _ = conn.write_all(bytes);
        let _ = conn.shutdown(std::net::Shutdown::Write);
        // Closing with unread bytes queued resets the connection, and the
        // reset reaches either the write above or, once the answer has
        // been read, the read below. Either way it is the close; the bytes
        // read before it stay in `response`.
        let mut response = String::new();
        match conn.read_to_string(&mut response) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("response: {e}"),
        }
        response
    }

    #[test]
    fn hostile_lines_get_an_error_and_the_daemon_survives() {
        let root = std::env::temp_dir().join(format!("vc-serve-hostile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service = Arc::new(
            SweepService::start(&ServeConfig {
                threads: 1,
                store_dir: root.join("store"),
                spool_dir: root.join("spool"),
                max_store_entries: None,
            })
            .expect("start"),
        );
        let socket = root.join("serve.sock");
        let daemon = ServeDaemon::bind(Arc::clone(&service), &socket).expect("bind");

        let endless = vec![b'{'; 1 << 20];
        let not_utf8 = b"{\"op\":\"stats\xff\"}\n{\"op\":\"stats\"}\n".to_vec();
        // Nested far past `vc_json::MAX_DEPTH`: parsed by unbounded
        // recursion, it would overflow the daemon thread's stack.
        let mut deep = vec![b'['; 60_000];
        deep.push(b'\n');
        let too_deep = format!(
            "bad request: nesting deeper than {0} at byte {0}",
            vc_json::MAX_DEPTH
        );
        // Specs that decode but cannot be built: `gen::pseudo_tree`
        // asserts a cycle of at least 3, which unwound the daemon's one
        // accept thread, and an unbounded `n` grows the daemon node by node.
        let submit = |instance: &str| {
            format!(
                "{{\"op\":\"submit\",\"spec\":{{\"instance\":{instance},\
                 \"algorithm\":{{\"name\":\"leaf-coloring/distance\"}}}}}}\n"
            )
            .into_bytes()
        };
        let cycle_two = submit(r#"{"kind":"pseudo-tree","n":10,"cycle":2,"seed":1}"#);
        let huge = submit(r#"{"kind":"full-binary-tree","n":1048577,"seed":1}"#);
        for (bytes, error) in [
            (endless, "request line longer than 65536 bytes"),
            (not_utf8, "request line is not UTF-8"),
            (deep, too_deep.as_str()),
            (
                cycle_two,
                "bad spec: instance.cycle = 2 is outside 3..=349525",
            ),
            (
                huge,
                "bad spec: instance.n = 1048577 is outside 0..=1048576",
            ),
        ] {
            let response = raw_request(&socket, &bytes);
            // One error line, then the connection closes: after a line it
            // cannot frame, the daemon closes it and never answers the
            // valid request behind; after the other lines, the client does.
            assert_eq!(response.lines().count(), 1, "{response}");
            let doc = vc_json::parse(&response).expect("error parses");
            assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
            assert_eq!(doc.get("error").and_then(Value::as_str), Some(error));
            let stats = request(&socket, "{\"op\":\"stats\"}").expect("daemon still answers");
            let doc = vc_json::parse(&stats).expect("stats parses");
            assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
        }
        drop(daemon);
        let _ = std::fs::remove_dir_all(&root);
    }
}
