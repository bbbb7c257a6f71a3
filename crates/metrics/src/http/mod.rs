//! A minimal std-only HTTP stack: [`HttpServer`] (hardened accept loop
//! with per-connection workers, see [`connection::HttpLimits`]) and
//! the [`TelemetryServer`] built on it — `/metrics` (Prometheus text
//! exposition from a [`TelemetryRegistry`]), `/healthz`, `/alerts`.
//!
//! This is the scrape side of the paper's §3.3 METRICS loop: a tool run
//! attaches a registry to its journal, a [`TelemetryServer`] exposes the
//! registry over HTTP, and a collector (or a human with `curl`) watches
//! the run *while it executes*. The same stack carries the campaign
//! daemon in `ideaflow-serve`, which is why the connection layer guards
//! against slow and oversized clients rather than trusting the LAN:
//! requests are parsed and bounded in [`connection`], routed through a
//! [`router::Handler`], and each connection runs on its own worker
//! thread so one stalled client can't wedge the accept loop.

pub mod connection;
pub mod router;

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::alerts::AlertEngine;
use ideaflow_trace::TelemetryRegistry;

pub use connection::HttpLimits;
pub use router::{Body, Handler, Request, Response};

/// A running HTTP server: nonblocking accept loop on a background
/// thread, one worker thread per connection, all bounded by
/// [`HttpLimits`]. Dropping (or [`HttpServer::shutdown`]) stops the
/// listener and joins every in-flight connection.
#[derive(Debug)]
pub struct HttpServer {
    port: u16,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks a free port) and serves
    /// `handler` until shutdown.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the port cannot be bound.
    pub fn bind(port: u16, limits: HttpLimits, handler: Arc<dyn Handler>) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let active = Arc::new(AtomicUsize::new(0));
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        if active.load(Ordering::Acquire) >= limits.max_connections {
                            connection::refuse_overloaded(stream, &limits);
                            continue;
                        }
                        active.fetch_add(1, Ordering::AcqRel);
                        let handler = Arc::clone(&handler);
                        let active = Arc::clone(&active);
                        workers.push(std::thread::spawn(move || {
                            connection::serve_connection(stream, &limits, &*handler);
                            active.fetch_sub(1, Ordering::AcqRel);
                        }));
                        workers.retain(|w| !w.is_finished());
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(Self {
            port,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound port (useful after binding port 0).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stops the listener thread and waits for it (and every live
    /// connection worker) to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A running telemetry endpoint. Dropping (or calling
/// [`TelemetryServer::shutdown`]) stops the listener thread.
#[derive(Debug)]
pub struct TelemetryServer {
    inner: HttpServer,
}

impl TelemetryServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks a free port) and serves
    /// `registry` until shutdown.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the port cannot be bound.
    pub fn serve(port: u16, registry: TelemetryRegistry) -> io::Result<Self> {
        Self::serve_with_alerts(port, registry, None)
    }

    /// Like [`TelemetryServer::serve`], additionally exposing `GET
    /// /alerts` (the engine's JSON snapshot) when an [`AlertEngine`]
    /// is supplied. Without one, `/alerts` is a plain 404.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the port cannot be bound.
    pub fn serve_with_alerts(
        port: u16,
        registry: TelemetryRegistry,
        alerts: Option<AlertEngine>,
    ) -> io::Result<Self> {
        let handler = move |req: &Request| {
            if req.method != "GET" {
                return Response::text(405, "method not allowed\n");
            }
            match req.path() {
                "/metrics" => Response::with_type(
                    200,
                    "text/plain; version=0.0.4",
                    registry.render_prometheus(),
                ),
                "/healthz" => Response::text(200, "ok\n"),
                "/alerts" => match &alerts {
                    Some(engine) => Response::json(200, engine.snapshot_json()),
                    None => Response::text(404, "not found\n"),
                },
                _ => Response::text(404, "not found\n"),
            }
        };
        Ok(Self {
            inner: HttpServer::bind(port, HttpLimits::default(), Arc::new(handler))?,
        })
    }

    /// The bound port (useful after binding port 0).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.inner.port()
    }

    /// Stops the listener thread and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn get(port: u16, path: &str) -> String {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_healthz() {
        let registry = TelemetryRegistry::new();
        registry.inc_counter("requests", 3);
        registry.observe("latency.secs", 0.25);
        let mut server = TelemetryServer::serve(0, registry.clone()).unwrap();
        let port = server.port();

        let health = get(port, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let metrics = get(port, "/metrics");
        assert!(metrics.contains("ideaflow_requests_total 3"), "{metrics}");
        assert!(
            metrics.contains("ideaflow_latency_secs_count 1"),
            "{metrics}"
        );
        let body_at = metrics.find("\r\n\r\n").unwrap() + 4;
        assert!(
            ideaflow_trace::telemetry::exposition_is_valid(&metrics[body_at..]),
            "{metrics}"
        );

        // Live: a scrape after more activity sees the new values.
        registry.inc_counter("requests", 1);
        assert!(get(port, "/metrics").contains("ideaflow_requests_total 4"));

        let missing = get(port, "/404");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn non_get_methods_are_405_and_unknown_paths_404() {
        let mut server = TelemetryServer::serve(0, TelemetryRegistry::new()).unwrap();
        let port = server.port();

        for method in ["POST", "PUT", "DELETE", "HEAD"] {
            let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
            write!(stream, "{method} /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            stream.read_to_string(&mut out).unwrap();
            assert!(
                out.starts_with("HTTP/1.1 405 Method Not Allowed"),
                "{method}: {out}"
            );
        }
        for path in ["/", "/metricz", "/alerts"] {
            // /alerts included: without an engine it does not exist.
            let resp = get(port, path);
            assert!(resp.starts_with("HTTP/1.1 404 Not Found"), "{path}: {resp}");
        }
        server.shutdown();
    }

    #[test]
    fn serves_alert_snapshot_and_active_gauges() {
        use crate::alerts::{AlertEngine, AlertRule, BUDGET_COUNTER};

        let registry = TelemetryRegistry::new();
        let engine = AlertEngine::new(
            vec![
                AlertRule::budget("model-hour-budget", 1.0),
                AlertRule::stall("stalled", 99),
            ],
            registry.clone(),
        );
        registry.inc_counter(BUDGET_COUNTER, 2500); // 2.5h >= 1h
        registry.set_gauge("campaign.best", 4.0);
        engine.tick();

        let mut server =
            TelemetryServer::serve_with_alerts(0, registry.clone(), Some(engine.clone())).unwrap();
        let port = server.port();

        let alerts = get(port, "/alerts");
        assert!(alerts.starts_with("HTTP/1.1 200 OK"), "{alerts}");
        assert!(alerts.contains("application/json"), "{alerts}");
        assert!(
            alerts.contains("\"rule\": \"model-hour-budget\""),
            "{alerts}"
        );
        assert!(alerts.contains("\"active\": true"), "{alerts}");
        assert_eq!(
            &alerts[alerts.find("\r\n\r\n").unwrap() + 4..],
            engine.snapshot_json(),
            "the body is exactly the engine snapshot"
        );

        // The same state shows on /metrics as labeled alert gauges.
        let metrics = get(port, "/metrics");
        assert!(
            metrics.contains("ideaflow_alert_active{rule=\"model-hour-budget\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("ideaflow_alert_active{rule=\"stalled\"} 0"),
            "{metrics}"
        );
        let body_at = metrics.find("\r\n\r\n").unwrap() + 4;
        assert!(
            ideaflow_trace::telemetry::exposition_is_valid(&metrics[body_at..]),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn serves_executor_pool_gauges() {
        // The gauges a `--telemetry-port` session scrapes for pool
        // health: seeded at attach time, updated as tasks run.
        let registry = TelemetryRegistry::new();
        let pool = ideaflow_exec::PoolBuilder::new().threads(2).build();
        pool.attach_telemetry(&registry);
        let total: u64 = pool
            .par_map((0..64u64).collect(), |i, x| i as u64 + x)
            .iter()
            .sum();
        assert_eq!(total, 2 * (0..64u64).sum::<u64>());

        let mut server = TelemetryServer::serve(0, registry).unwrap();
        let metrics = get(server.port(), "/metrics");
        assert!(metrics.contains("ideaflow_exec_workers 2"), "{metrics}");
        assert!(metrics.contains("ideaflow_exec_workers_busy"), "{metrics}");
        assert!(metrics.contains("ideaflow_exec_queue_depth"), "{metrics}");
        // par_map dispatches chunks, not items, so the task count is
        // the chunk count — pin it to whatever the pool actually ran.
        assert!(pool.tasks_run() >= 1);
        assert!(
            metrics.contains(&format!("ideaflow_exec_tasks {}", pool.tasks_run())),
            "{metrics}"
        );
        let body_at = metrics.find("\r\n\r\n").unwrap() + 4;
        assert!(
            ideaflow_trace::telemetry::exposition_is_valid(&metrics[body_at..]),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn serves_fault_injection_counters() {
        use ideaflow_faults::{FaultInjector, FaultPlan};
        use ideaflow_flow::options::SpnrOptions;
        use ideaflow_flow::spnr::SpnrFlow;
        use ideaflow_netlist::generate::{DesignClass, DesignSpec};

        // A fault-injected flow wired journal -> telemetry: the chaos
        // counters must surface on /metrics as `ideaflow_faults_*_total`.
        let registry = TelemetryRegistry::new();
        let journal =
            ideaflow_trace::Journal::telemetry_only("faults").with_telemetry(registry.clone());
        let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 200).unwrap(), 21)
            .with_journal(journal)
            .with_faults(FaultInjector::new(FaultPlan::uniform(5, 0.2)));
        let opts = SpnrOptions::with_target_ghz(0.5).unwrap();
        for sample in 0..40 {
            let _ = flow.try_run(&opts, sample);
        }
        assert!(
            registry.counter_value("faults.injected").unwrap_or(0) > 0,
            "a 60% combined fault rate over 40 runs must inject"
        );

        let mut server = TelemetryServer::serve(0, registry).unwrap();
        let metrics = get(server.port(), "/metrics");
        assert!(
            metrics.contains("ideaflow_faults_injected_total"),
            "{metrics}"
        );
        let body_at = metrics.find("\r\n\r\n").unwrap() + 4;
        assert!(
            ideaflow_trace::telemetry::exposition_is_valid(&metrics[body_at..]),
            "{metrics}"
        );
        server.shutdown();
    }

    // ---- hardening: the HttpLimits guards ------------------------------

    fn echo_server(limits: HttpLimits) -> HttpServer {
        let handler = |req: &Request| {
            Response::text(
                200,
                format!("{} {} body={}\n", req.method, req.path(), req.body.len()),
            )
        };
        HttpServer::bind(0, limits, Arc::new(handler)).unwrap()
    }

    fn raw(port: u16, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.write_all(bytes).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    }

    #[test]
    fn stalled_client_gets_408_within_the_deadline() {
        let mut server = echo_server(HttpLimits {
            read_timeout: Duration::from_millis(200),
            ..HttpLimits::default()
        });
        let port = server.port();
        // A half-sent request that never completes: the server must
        // answer 408 on its own rather than hold the worker forever.
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.write_all(b"GET /slow HTTP/1.1\r\nHost:").unwrap();
        let start = std::time::Instant::now();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "408 must arrive promptly, took {:?}",
            start.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_gets_414() {
        let mut server = echo_server(HttpLimits {
            max_request_line: 128,
            ..HttpLimits::default()
        });
        let long_path = "a".repeat(400);
        let out = raw(
            server.port(),
            format!("GET /{long_path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
        );
        assert!(out.starts_with("HTTP/1.1 414"), "{out}");
        server.shutdown();
    }

    #[test]
    fn oversized_headers_get_431() {
        let mut server = echo_server(HttpLimits {
            max_header_bytes: 512,
            ..HttpLimits::default()
        });
        let mut req = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..64 {
            req.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(32)));
        }
        req.push_str("\r\n");
        let out = raw(server.port(), req.as_bytes());
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        server.shutdown();
    }

    #[test]
    fn oversized_body_gets_413_and_bounded_body_is_read() {
        let mut server = echo_server(HttpLimits {
            max_body_bytes: 64,
            ..HttpLimits::default()
        });
        let port = server.port();
        let out = raw(port, b"POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        // A body inside the bound is delivered to the handler in full.
        let ok = raw(port, b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert!(ok.contains("POST /x body=5"), "{ok}");
        server.shutdown();
    }

    #[test]
    fn repeated_content_length_gets_400() {
        let mut server = echo_server(HttpLimits::default());
        let port = server.port();
        for lengths in ["0\r\nContent-Length: 9999", "5\r\ncontent-length: 5"] {
            let req = format!("GET /healthz HTTP/1.1\r\nContent-Length: {lengths}\r\n\r\nhello");
            let out = raw(port, req.as_bytes());
            assert!(out.starts_with("HTTP/1.1 400"), "{lengths:?}: {out}");
            assert!(out.contains("repeated content-length"), "{out}");
        }
        server.shutdown();
    }

    #[test]
    fn connection_cap_answers_503_with_retry_after() {
        let mut server = echo_server(HttpLimits {
            read_timeout: Duration::from_millis(500),
            max_connections: 1,
            ..HttpLimits::default()
        });
        let port = server.port();
        // Occupy the single slot with a connection that sends nothing.
        let hog = TcpStream::connect(("127.0.0.1", port)).unwrap();
        // Give the accept loop a beat to claim the slot.
        std::thread::sleep(Duration::from_millis(50));
        let out = raw(port, b"GET /x HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
        assert!(out.contains("Retry-After: 1"), "{out}");
        drop(hog);
        server.shutdown();
    }

    #[test]
    fn streaming_bodies_are_close_delimited() {
        let handler = |_req: &Request| {
            Response::stream("text/plain", |w: &mut dyn std::io::Write| {
                for i in 0..3 {
                    writeln!(w, "chunk {i}")?;
                }
                Ok(())
            })
        };
        let mut server = HttpServer::bind(0, HttpLimits::default(), Arc::new(handler)).unwrap();
        let out = get(server.port(), "/stream");
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(!out.contains("Content-Length"), "{out}");
        assert!(out.ends_with("chunk 0\nchunk 1\nchunk 2\n"), "{out}");
        server.shutdown();
    }
}
