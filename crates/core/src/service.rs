//! The query-service application layer: a [`serve::Handler`] mapping
//! HTTP requests onto memoized [`StudyRun`] projections.
//!
//! `crates/serve` owns sockets, deadlines, and shedding; this module
//! owns routing and content. Everything served here is a pure
//! projection of one warm `StudyRun` (booted through the persistent
//! stage store when `--store` is set, so a fresh process answers its
//! first query without recomputing intact stages — ROADMAP item 5's
//! tie-in), which is what makes responses safely cacheable:
//!
//! * **ETags** derive from the chained stage fingerprints
//!   (DESIGN.md §7) plus the config hash — the same inputs that decide
//!   cache reuse decide HTTP revalidation, so `If-None-Match` gives a
//!   `304` exactly when a re-run would have produced identical bytes.
//! * A bounded response memo caches rendered bodies per
//!   `path?query`; the underlying projections are themselves memoized
//!   per-run, so a miss is a render, not a recompute.
//! * **Chaos** rides the registered `http.request` site: with a
//!   `ChaosPlan` armed, a scheduled request panics *before* routing and
//!   is recovered by the server's single unwind site into a clean 500 —
//!   one request lost, worker intact, next request served.
//!
//! Endpoints (all GET, one request per connection):
//!
//! | path | payload |
//! |------|---------|
//! | `/healthz` | liveness probe |
//! | `/v1/trends` | the `ddoscovery trends` table, byte-identical |
//! | `/v1/series` | JSON list of observatory slugs |
//! | `/v1/series/<slug>[?norm=1]` | weekly series CSV (raw or normalized) |
//! | `/v1/manifest` | scenario, seed, config hash + JSON, stage fingerprints |
//! | `/v1/experiments` | JSON list of experiment ids |
//! | `/v1/experiments/<id>` | experiment body (text) |
//! | `/v1/experiments/<id>/<file.csv>` | one figure/table CSV artifact |
//! | `/v1/sweep/<field>?values=a,b,c` | small sweep grid as CSV |
//! | `/admin/drain` | trigger graceful drain |

use crate::experiments;
use crate::pipeline::{ObsId, StudyRun};
use crate::render;
use crate::scenario::StudyConfig;
use crate::stagecache::StageFingerprints;
use serve::{Handler, Request, Response, ShutdownHandle};
use simcore::chaos::{sites, ChaosSchedule};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Response-memo capacity; past this the memo is dropped wholesale.
/// The endpoint space is small (a few dozen distinct keys in practice),
/// so an overflow means adversarial query-string churn — exactly the
/// case where caching should stop, not grow.
const MEMO_CAP: usize = 256;

/// Cap on `values=` grid points per sweep request: each point is a
/// (stage-cached) study execution, so the cap is the endpoint's own
/// admission control.
const SWEEP_MAX_VALUES: usize = 8;

/// A warm study served over HTTP. Construct with [`StudyService::new`],
/// wrap in an `Arc`, and hand to `serve::Server::bind`.
pub struct StudyService {
    run: StudyRun,
    cfg: StudyConfig,
    scenario: String,
    fingerprints: StageFingerprints,
    config_hash: u64,
    etag_root: u64,
    chaos: Option<ChaosSchedule>,
    seq: AtomicU64,
    memo: Mutex<HashMap<String, Response>>,
    shutdown: Mutex<Option<ShutdownHandle>>,
}

impl StudyService {
    /// Wrap an executed run. `scenario` labels the manifest endpoint
    /// (`paper`, `quick`, …) the same way run manifests are labeled.
    pub fn new(run: StudyRun, cfg: &StudyConfig, scenario: &str) -> StudyService {
        let fingerprints = StageFingerprints::of(cfg);
        let config_hash = serde_json::to_string(cfg)
            .map(|json| obs::manifest::fnv1a(json.as_bytes()))
            .unwrap_or(cfg.seed);
        let mut chain = obs::manifest::Fnv::new();
        chain.write_u64(config_hash);
        for (name, fp) in fingerprints.manifest_entries() {
            chain.write(name.as_bytes()).write_u64(fp);
        }
        let chaos = cfg.chaos.as_ref().map(|plan| plan.schedule());
        StudyService {
            run,
            cfg: cfg.clone(),
            scenario: scenario.to_string(),
            fingerprints,
            config_hash,
            etag_root: chain.finish(),
            chaos,
            seq: AtomicU64::new(0),
            memo: Mutex::new(HashMap::new()),
            shutdown: Mutex::new(None),
        }
    }

    /// Attach the server's shutdown handle so `/admin/drain` works.
    pub fn attach_shutdown(&self, handle: ShutdownHandle) {
        *lock(&self.shutdown) = Some(handle);
    }

    /// The ETag for a cache key: the chained stage fingerprints mixed
    /// with the request key, so any config or stage change — and only
    /// such a change — invalidates every cached representation.
    fn etag(&self, key: &str) -> String {
        let mut h = obs::manifest::Fnv::new();
        h.write_u64(self.etag_root).write(key.as_bytes());
        format!("\"{:016x}\"", h.finish())
    }

    /// Route and render `req`, memoizing cacheable 200s under their
    /// `path?query` key and honoring `If-None-Match`.
    fn respond(&self, req: &Request) -> Response {
        let key = if req.query.is_empty() {
            req.path.clone()
        } else {
            format!("{}?{}", req.path, req.query)
        };
        let etag = self.etag(&key);
        if req.header("if-none-match") == Some(etag.as_str()) {
            return Response::not_modified(&etag);
        }
        if let Some(hit) = lock(&self.memo).get(&key) {
            return hit.clone();
        }
        let resp = self.render(req);
        if resp.status == 200 {
            let resp = resp.with_header("ETag", &etag);
            let mut memo = lock(&self.memo);
            if memo.len() >= MEMO_CAP {
                memo.clear();
            }
            memo.insert(key, resp.clone());
            return resp;
        }
        resp
    }

    fn render(&self, req: &Request) -> Response {
        let trimmed = req.path.trim_start_matches('/');
        let segments: Vec<&str> = trimmed.split('/').collect();
        match segments.as_slice() {
            ["v1", "trends"] => Response::text(200, render::trends_table(&self.run)),
            ["v1", "series"] => {
                let slugs: Vec<String> = ObsId::ALL.iter().map(|id| format!("{:?}", id.slug())).collect();
                Response::json(200, format!("[{}]", slugs.join(",")))
            }
            ["v1", "series", slug] => self.series(slug, req),
            ["v1", "manifest"] => self.manifest(),
            ["v1", "experiments"] => {
                let ids: Vec<String> =
                    experiments::all_ids().iter().map(|id| format!("{id:?}")).collect();
                Response::json(200, format!("[{}]", ids.join(",")))
            }
            ["v1", "experiments", id] => self.experiment(id, None),
            ["v1", "experiments", id, file] => self.experiment(id, Some(file)),
            ["v1", "sweep", field] => self.sweep(field, req),
            _ => Response::not_found(&req.path),
        }
    }

    fn series(&self, slug: &str, req: &Request) -> Response {
        let Some(id) = ObsId::ALL.iter().copied().find(|id| id.slug() == slug) else {
            return Response::not_found(&format!("series {slug:?} (see /v1/series)"));
        };
        let series = if req.query_param("norm") == Some("1") {
            self.run.normalized_series(id).clone()
        } else {
            self.run.weekly_series(id).clone()
        };
        Response::csv(render::series_csv(&[series]))
    }

    fn manifest(&self) -> Response {
        let config_json =
            serde_json::to_string(&self.cfg).unwrap_or_else(|_| "null".to_string());
        let stages: Vec<String> = self
            .fingerprints
            .manifest_entries()
            .iter()
            .map(|(name, fp)| format!("{name:?}:\"{fp:016x}\""))
            .collect();
        let body = format!(
            "{{\"scenario\":{:?},\"seed\":{},\"config_hash\":\"{:016x}\",\"etag_root\":\"{:016x}\",\"stages\":{{{}}},\"config\":{}}}",
            self.scenario,
            self.cfg.seed,
            self.config_hash,
            self.etag_root,
            stages.join(","),
            config_json
        );
        Response::json(200, body)
    }

    fn experiment(&self, id: &str, file: Option<&str>) -> Response {
        let Some(result) = experiments::run_experiment(&self.run, id) else {
            return Response::not_found(&format!("experiment {id:?} (see /v1/experiments)"));
        };
        match file {
            None => Response::text(200, format!("{}\n\n{}", result.title, result.body)),
            Some(file) => match result.csv.iter().find(|(name, _)| name == file) {
                Some((_, csv)) => Response::csv(csv.clone()),
                None => {
                    let names: Vec<&str> =
                        result.csv.iter().map(|(name, _)| name.as_str()).collect();
                    Response::not_found(&format!(
                        "artifact {file:?} of {id} (has: {})",
                        names.join(", ")
                    ))
                }
            },
        }
    }

    fn sweep(&self, field: &str, req: &Request) -> Response {
        let Some(raw) = req.query_param("values") else {
            return Response::bad_request("sweep needs ?values=v1,v2,...");
        };
        let mut values = Vec::new();
        for part in raw.split(',').filter(|p| !p.is_empty()) {
            match part.parse::<f64>() {
                Ok(v) if v.is_finite() => values.push(v),
                _ => return Response::bad_request("values must be finite numbers"),
            }
        }
        if values.is_empty() {
            return Response::bad_request("sweep needs at least one value");
        }
        if values.len() > SWEEP_MAX_VALUES {
            return Response::bad_request("at most 8 sweep values per request");
        }
        let apply: fn(&mut StudyConfig, f64) = match field {
            "sav_reduction" => |cfg, v| cfg.gen.timeline.sav_reduction = v,
            "carpet_gap_secs" => |cfg, v| cfg.obs.carpet_gap_secs = v as u32,
            _ => {
                return Response::not_found(&format!(
                    "sweep field {field:?} (have: sav_reduction, carpet_gap_secs)"
                ))
            }
        };
        // Grid points run on the shared pool and reuse warm plan/attack
        // stages through the stage cache (a carpet-gap point reruns only
        // the three carpet passes); a corrupt disk store degrades each
        // point to recompute, never to an error here.
        let report = match crate::sweep::sweep(&self.cfg, &values, &ObsId::MAIN_TEN, apply) {
            Ok(report) => report,
            Err(e) => return Response::bad_request(&e.to_string()),
        };
        let mut csv = String::from("value,observatory,observations,trend,change_4y\n");
        for o in &report.outcomes {
            csv.push_str(&format!(
                "{},{},{},{},{}\n",
                o.value,
                o.observatory,
                o.observations,
                o.trend.symbol(),
                if o.change_4y.is_finite() {
                    format!("{:.6}", o.change_4y)
                } else {
                    String::new()
                }
            ));
        }
        for skip in &report.skipped {
            csv.push_str(&format!("{},skipped,,,\n", skip.value));
        }
        Response::csv(csv)
    }
}

impl Handler for StudyService {
    fn handle(&self, req: &Request) -> Response {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // The chaos hook: a scheduled (seed, http.request, seq) panics
        // here and unwinds into `recover::capture` inside the server
        // worker — a clean 500 for exactly this request. No retry by
        // design: requests are cheap for the client to re-issue, and a
        // retry would make `fault.injected` counts depend on timing.
        if let Some(cs) = &self.chaos {
            cs.maybe_fail(sites::HTTP_REQUEST, seq, 0);
        }
        if req.method != "GET" {
            return Response::text(405, "only GET is supported\n");
        }
        match req.path.as_str() {
            "/healthz" => Response::text(200, "ok\n"),
            "/admin/drain" => match lock(&self.shutdown).as_ref() {
                Some(handle) => {
                    handle.shutdown();
                    Response::text(200, "draining\n")
                }
                None => Response::text(503, "no shutdown handle attached\n"),
            },
            _ => self.respond(req),
        }
    }
}

/// Lock a service mutex, surviving poison — the memo and shutdown slot
/// hold plain values that cannot be left in a torn state.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(chaos: bool) -> StudyService {
        let mut cfg = StudyConfig::quick();
        if chaos {
            cfg.chaos = Some(crate::faults::ChaosPlan::recoverable(1.0, 7));
        }
        let run = StudyRun::try_execute(&cfg).expect("quick config executes");
        StudyService::new(run, &cfg, "quick")
    }

    fn get(path: &str) -> Request {
        let (path, query) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers: Vec::new(),
        }
    }

    #[test]
    fn serves_trends_series_manifest_and_experiments() {
        let svc = service(false);
        assert_eq!(svc.handle(&get("/healthz")).status, 200);
        let trends = svc.handle(&get("/v1/trends"));
        assert_eq!(trends.status, 200);
        assert_eq!(
            String::from_utf8(trends.body).expect("utf8"),
            render::trends_table(&svc.run)
        );
        let list = svc.handle(&get("/v1/series"));
        assert_eq!(list.status, 200);
        let listing = String::from_utf8(list.body).expect("utf8");
        assert!(listing.contains("\"ucsd-nt\"") || listing.contains("ucsd"), "{listing}");
        let csv = svc.handle(&get("/v1/series/hopscotch?norm=1"));
        assert_eq!(csv.status, 200);
        assert!(String::from_utf8(csv.body).expect("utf8").starts_with("week,start_date,"));
        let manifest = svc.handle(&get("/v1/manifest"));
        assert_eq!(manifest.status, 200);
        let manifest = String::from_utf8(manifest.body).expect("utf8");
        assert!(manifest.contains("\"scenario\":\"quick\""), "{manifest}");
        assert!(manifest.contains("\"stages\""), "{manifest}");
        let exp = svc.handle(&get("/v1/experiments"));
        assert!(String::from_utf8(exp.body).expect("utf8").contains("\"table1\""));
        assert_eq!(svc.handle(&get("/v1/experiments/table1")).status, 200);
        assert_eq!(svc.handle(&get("/v1/series/nope")).status, 404);
        assert_eq!(svc.handle(&get("/v1/experiments/nope")).status, 404);
        assert_eq!(svc.handle(&get("/nope")).status, 404);
        let post = Request { method: "POST".to_string(), ..get("/v1/trends") };
        assert_eq!(svc.handle(&post).status, 405);
    }

    #[test]
    fn etags_revalidate_and_memo_caches() {
        let svc = service(false);
        let first = svc.handle(&get("/v1/trends"));
        let etag = first
            .headers
            .iter()
            .find(|(n, _)| n == "ETag")
            .map(|(_, v)| v.clone())
            .expect("200 carries an ETag");
        let mut req = get("/v1/trends");
        req.headers.push(("if-none-match".to_string(), etag.clone()));
        let revalidated = svc.handle(&req);
        assert_eq!(revalidated.status, 304);
        assert!(revalidated.body.is_empty());
        // Same key, no validator: memo hit must be the identical bytes.
        let second = svc.handle(&get("/v1/trends"));
        assert_eq!(second.body, first.body);
        // Different representations get different ETags.
        let raw = svc.handle(&get("/v1/series/hopscotch"));
        let norm = svc.handle(&get("/v1/series/hopscotch?norm=1"));
        let tag = |r: &Response| {
            r.headers
                .iter()
                .find(|(n, _)| n == "ETag")
                .map(|(_, v)| v.clone())
        };
        assert_ne!(tag(&raw), tag(&norm));
    }

    #[test]
    fn sweep_endpoint_validates_and_renders() {
        let svc = service(false);
        assert_eq!(svc.handle(&get("/v1/sweep/sav_reduction")).status, 400);
        assert_eq!(
            svc.handle(&get("/v1/sweep/sav_reduction?values=abc")).status,
            400
        );
        assert_eq!(
            svc.handle(&get("/v1/sweep/sav_reduction?values=1,2,3,4,5,6,7,8,9")).status,
            400
        );
        assert_eq!(svc.handle(&get("/v1/sweep/unknown?values=1")).status, 404);
        let resp = svc.handle(&get("/v1/sweep/carpet_gap_secs?values=1800,3600"));
        assert_eq!(resp.status, 200);
        let csv = String::from_utf8(resp.body).expect("utf8");
        assert!(csv.starts_with("value,observatory,observations,trend,change_4y\n"));
        // 2 grid points x 10 observatories + header.
        assert_eq!(csv.lines().count(), 21, "{csv}");
    }

    #[test]
    fn chaos_panics_ride_the_registered_site() {
        let svc = service(true);
        // p=1.0: every request sequence number is scheduled to fail.
        let caught = simcore::recover::capture(sites::HTTP_REQUEST, || {
            svc.handle(&get("/healthz"))
        });
        let err = caught.expect_err("chaos must fire");
        assert!(err.message.contains("http.request"), "{}", err.message);
    }
}
