//! `psf` — a command-line driver over the reproduction.
//!
//! ```sh
//! cargo run --bin psf -- creds                 # Table 2
//! cargo run --bin psf -- prove bob Comp.NY.Member
//! cargo run --bin psf -- acl charlie           # Table 4 decision
//! cargo run --bin psf -- plan sd-1 --privacy   # plan a deployment
//! cargo run --bin psf -- plan se-1 --max-latency 10
//! cargo run --bin psf -- storage 50 1000       # §5 comparison
//! cargo run --bin psf -- view partner          # Table 5 source
//! cargo run --bin psf -- metrics               # full-stack run + snapshot
//! ```
//!
//! Global flags (any command):
//!
//! * `--trace-out <path>` — on exit, write the structured trace buffer
//!   (planning, proof search, VIG generation, deployment, handshakes) as
//!   JSON lines to `<path>`.
//! * `--audit-out <path>` — on exit, write the authorization audit trail
//!   (every authorize/prove/select_view/revocation decision) as JSON
//!   lines to `<path>`.
//! * `--quiet` / `-q` — suppress narration on stdout; results are still
//!   recorded as telemetry events/spans, so `--quiet --trace-out t.jsonl`
//!   gives a machine-readable run with a silent terminal.

use psf_core::{
    DeployFaultPlan, Goal, PlannerConfig, RetryPolicy, Supervisor, SupervisorState, TickOutcome,
};
use psf_drbac::entity::RoleName;
use psf_drbac::proof::ProofEngine;
use psf_mail::{mail_client_class, mail_method_library, MailWorld};
use psf_telemetry::{ExportedSpan, TraceId};
use psf_views::ViewSpec;
use psf_views::{ExposureType, Vig};
use std::time::Duration;

/// Global CLI options stripped from the argument list before dispatch.
struct Cli {
    quiet: bool,
    trace_out: Option<String>,
    audit_out: Option<String>,
    audit_fsync: bool,
}

impl Cli {
    /// Print narration unless `--quiet` was given.
    fn say(&self, text: impl AsRef<str>) {
        if !self.quiet {
            println!("{}", text.as_ref());
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: psf [--quiet] [--trace-out PATH] [--audit-out PATH] <command>\n\
         \n\
         commands:\n\
         \x20 creds                         print the Table 2 credentials\n\
         \x20 prove <user> <Entity.Role>    run a dRBAC proof (alice|bob|charlie)\n\
         \x20 acl <user>                    Table 4 view decision for a user\n\
         \x20 plan <node> [--privacy] [--max-latency MS]\n\
         \x20                               plan mail delivery to ny-N/sd-N/se-N\n\
         \x20 storage <P> <U>               §5 storage comparison at one size\n\
         \x20 view <member|partner|anonymous>  generate and print the view\n\
         \x20 metrics [--bare]              run the full stack, print a\n\
         \x20                               Prometheus-text metrics snapshot\n\
         \x20 analyze [--json] [--deny warnings] [--fixtures DIR]\n\
         \x20                               static policy analysis (PSF001…):\n\
         \x20                               delegation graph, view/ACL lint,\n\
         \x20                               and plan pre-flight over the mail\n\
         \x20                               scenario; --fixtures checks each\n\
         \x20                               scenario XML in DIR against its\n\
         \x20                               .expected snapshot\n\
         \x20 chaos [--seed N] [--wal-dir DIR]\n\
         \x20                               run the mail scenario under a\n\
         \x20                               seeded schedule of link/node/deploy\n\
         \x20                               faults plus WAL crash injection\n\
         \x20                               (torn shard tail, flipped byte in\n\
         \x20                               a committed record, torn bus\n\
         \x20                               segment); print a recovery report\n\
         \x20 repo --dir DIR [--verify|--stats|--compact] [--fill N] [--shards S]\n\
         \x20                               inspect or maintain a durable\n\
         \x20                               credential repository: --verify\n\
         \x20                               checks every segment's\n\
         \x20                               snapshot+log integrity (exit 1 on\n\
         \x20                               torn/corrupt bytes), --stats\n\
         \x20                               prints per-shard sizes and replay\n\
         \x20                               counts (both read-only), --compact\n\
         \x20                               snapshots and truncates every\n\
         \x20                               segment log (importing a legacy\n\
         \x20                               single-log directory first),\n\
         \x20                               --fill seeds N synthetic records\n\
         \x20                               (--shards S sizes a directory it\n\
         \x20                               creates; default 32)\n\
         \x20 cert --emit <user> <Entity.Role> [--out PATH] [--json]\n\
         \x20                               prove and emit a proof-carrying\n\
         \x20                               authorization certificate (digest,\n\
         \x20                               chain, watch set; --out writes the\n\
         \x20                               wire bytes)\n\
         \x20 cert --verify PATH [--json]   re-validate certificate wire bytes\n\
         \x20                               with the independent checker (no\n\
         \x20                               repository access, no search);\n\
         \x20                               exit 1 on reject\n\
         \x20 audit [--json] [--subject S] [--deny-only] [--trace HEX]\n\
         \x20                               run the full stack, then replay\n\
         \x20                               the authorization audit trail\n\
         \x20                               (who asked, verdict, delegation\n\
         \x20                               chain digest, cache provenance)\n\
         \x20 trace [--in FILE] [--tree HEX] [--exemplar METRIC] [--verify]\n\
         \x20                               render causal span trees; --verify\n\
         \x20                               exits 1 on orphan parents (CI);\n\
         \x20                               --exemplar looks up the trace\n\
         \x20                               behind a histogram's max bucket\n\
         \x20 slo [--json] [--check]        run the full stack, evaluate the\n\
         \x20                               latency SLO table (burn rates);\n\
         \x20                               --check exits 1 on violation\n\
         \n\
         global flags:\n\
         \x20 --trace-out PATH              write the JSONL span trace on exit\n\
         \x20 --audit-out PATH              write the JSONL audit trail on exit\n\
         \x20 --audit-fsync                 fsync the audit trail before close\n\
         \x20                               (crash-durable, pairs with the WAL)\n\
         \x20 --quiet | -q                  suppress stdout narration"
    );
    std::process::exit(2);
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        quiet: false,
        trace_out: None,
        audit_out: None,
        audit_fsync: false,
    };
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--quiet" | "-q" => {
                cli.quiet = true;
                raw.remove(i);
            }
            "--trace-out" => {
                raw.remove(i);
                if i >= raw.len() {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(2);
                }
                cli.trace_out = Some(raw.remove(i));
            }
            "--audit-out" => {
                raw.remove(i);
                if i >= raw.len() {
                    eprintln!("--audit-out needs a path");
                    std::process::exit(2);
                }
                cli.audit_out = Some(raw.remove(i));
            }
            "--audit-fsync" => {
                raw.remove(i);
                cli.audit_fsync = true;
            }
            _ => i += 1,
        }
    }
    let Some(cmd) = raw.first().cloned() else {
        usage()
    };
    let args = &raw[1..];

    let code = {
        let mut cmd_span = psf_telemetry::span("psf.cli", "command");
        cmd_span.field("command", &cmd);
        psf_telemetry::counter!("psf.cli.commands").inc();
        let code = match cmd.as_str() {
            "creds" => creds(&cli),
            "prove" => prove(&cli, args),
            "acl" => acl(&cli, args),
            "plan" => plan(&cli, args),
            "storage" => storage(&cli, args),
            "view" => view(&cli, args),
            "metrics" => metrics(&cli, args),
            "analyze" => analyze(&cli, args),
            "chaos" => chaos(&cli, args),
            "repo" => repo_cmd(&cli, args),
            "cert" => cert_cmd(&cli, args),
            "audit" => audit_cmd(&cli, args),
            "trace" => trace_cmd(&cli, args),
            "slo" => slo_cmd(&cli, args),
            _ => usage(),
        };
        cmd_span.field("exit_code", code);
        code
    };

    if let Some(path) = &cli.trace_out {
        let jsonl = psf_telemetry::export_jsonl();
        match std::fs::write(path, &jsonl) {
            Ok(()) => cli.say(format!(
                "trace: {} spans written to {path}",
                jsonl.lines().count()
            )),
            Err(e) => {
                eprintln!("trace: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &cli.audit_out {
        // AuditSink instead of a plain write: with --audit-fsync the
        // trail is fsynced before close, surviving the same crashes the
        // repository WAL does.
        let write = psf_telemetry::AuditSink::create(path.as_str())
            .map(|s| s.fsync_on_drop(cli.audit_fsync))
            .and_then(|mut sink| {
                let n = sink.write_log(psf_telemetry::audit::global())?;
                if cli.audit_fsync {
                    sink.sync()?;
                }
                Ok(n)
            });
        match write {
            Ok(n) => cli.say(format!("audit: {n} records written to {path}")),
            Err(e) => {
                eprintln!("audit: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(code);
}

fn world() -> MailWorld {
    MailWorld::build(2)
}

fn user<'w>(w: &'w MailWorld, name: &str) -> Option<&'w psf_drbac::Entity> {
    match name {
        "alice" => Some(&w.alice),
        "bob" => Some(&w.bob),
        "charlie" => Some(&w.charlie),
        other => {
            eprintln!("unknown user '{other}' (alice|bob|charlie)");
            None
        }
    }
}

fn creds(cli: &Cli) -> i32 {
    let w = world();
    psf_telemetry::event(
        "psf.cli",
        "creds.rendered",
        vec![("count", w.creds.len().to_string())],
    );
    cli.say("Table 2 — credentials issued by the Guard modules:");
    for (n, cred) in &w.creds {
        cli.say(format!("  ({n:>2}) {}", cred.body.render()));
    }
    0
}

fn prove(cli: &Cli, args: &[String]) -> i32 {
    let (Some(who), Some(role)) = (args.first(), args.get(1)) else {
        usage()
    };
    let w = world();
    let Some(subject) = user(&w, who).map(|u| u.as_subject()) else {
        return 2;
    };
    let role = match RoleName::parse(role) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let engine = ProofEngine::new(&w.registry, &w.repository, &w.bus, 0);
    match engine.prove(&subject, &role, &[]) {
        Ok((proof, stats)) => {
            psf_telemetry::event(
                "psf.cli",
                "prove.ok",
                vec![
                    ("user", who.clone()),
                    ("role", role.to_string()),
                    ("nodes_expanded", stats.nodes_expanded.to_string()),
                ],
            );
            cli.say(proof.render().trim_end());
            cli.say(format!(
                "search: {} nodes, {} credentials examined",
                stats.nodes_expanded, stats.credentials_examined
            ));
            0
        }
        Err(e) => {
            psf_telemetry::event(
                "psf.cli",
                "prove.failed",
                vec![("user", who.clone()), ("error", e.to_string())],
            );
            cli.say(format!("no proof: {e}"));
            1
        }
    }
}

/// `psf cert --emit <user> <Entity.Role> [--out PATH] [--json]` /
/// `psf cert --verify PATH [--json]`: emit a proof-carrying
/// authorization certificate from the mail world's engine, or
/// re-validate certificate wire bytes with the independent checker
/// (signature, chain, attenuation, expiry, revocation, epoch window —
/// no repository access, no proof search).
fn cert_cmd(cli: &Cli, args: &[String]) -> i32 {
    use psf_cert::AuthCertificate;
    use psf_drbac::repository::CredentialSource;

    let json = args.iter().any(|a| a == "--json");
    if let Some(path) = flag_value(args, "--verify") {
        let wire = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cert: cannot read {path}: {e}");
                return 2;
            }
        };
        let w = world();
        let decoded = AuthCertificate::decode(&wire);
        let verdict = decoded.as_ref().map_err(|e| e.clone()).and_then(|c| {
            psf_drbac::check_certificate(c, &w.registry, &w.bus, 0, w.repository.version())
                .map(|()| c)
        });
        psf_telemetry::event(
            "psf.cli",
            "cert.verified",
            vec![
                ("path", path.to_string()),
                ("accepted", verdict.is_ok().to_string()),
            ],
        );
        return match verdict {
            Ok(c) => {
                if json {
                    println!(
                        "{{\"accepted\": true, \"digest\": \"{}\", \"subject\": \"{}\", \
                         \"role\": \"{}\", \"edges\": {}, \"watch\": {}}}",
                        c.digest_hex(),
                        c.subject.render(),
                        c.role,
                        c.total_edges(),
                        c.watch.len()
                    );
                } else {
                    cli.say(format!(
                        "ACCEPT {} — {} → {} ({} edge(s), {} watched id(s))",
                        c.digest_hex(),
                        c.subject.render(),
                        c.role,
                        c.total_edges(),
                        c.watch.len()
                    ));
                }
                0
            }
            Err(e) => {
                if json {
                    println!("{{\"accepted\": false, \"reason\": \"{e}\"}}");
                } else {
                    cli.say(format!("REJECT — {e}"));
                }
                1
            }
        };
    }
    if args.iter().any(|a| a == "--emit") {
        let pos: Vec<&String> = args
            .iter()
            .skip_while(|a| *a != "--emit")
            .skip(1)
            .take_while(|a| !a.starts_with("--"))
            .collect();
        let (Some(who), Some(role)) = (pos.first(), pos.get(1)) else {
            usage()
        };
        let w = world();
        let Some(subject) = user(&w, who).map(|u| u.as_subject()) else {
            return 2;
        };
        let role = match RoleName::parse(role) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        let engine = ProofEngine::new(&w.registry, &w.repository, &w.bus, 0);
        let (_, cert, stats) = match engine.prove_certified(&subject, &role, &[]) {
            Ok(ok) => ok,
            Err(e) => {
                cli.say(format!("no proof: {e}"));
                return 1;
            }
        };
        let wire = cert.encode();
        if let Some(out) = flag_value(args, "--out") {
            if let Err(e) = std::fs::write(out, &wire) {
                eprintln!("cert: cannot write {out}: {e}");
                return 1;
            }
            cli.say(format!("wire bytes written to {out}"));
        }
        psf_telemetry::event(
            "psf.cli",
            "cert.emitted",
            vec![
                ("digest", cert.digest_hex()),
                ("edges", cert.total_edges().to_string()),
                ("wire_bytes", wire.len().to_string()),
            ],
        );
        if json {
            println!(
                "{{\"digest\": \"{}\", \"subject\": \"{}\", \"role\": \"{}\", \
                 \"edges\": {}, \"watch\": {}, \"wire_bytes\": {}, \
                 \"repo_epoch\": {}, \"nodes_expanded\": {}}}",
                cert.digest_hex(),
                cert.subject.render(),
                cert.role,
                cert.total_edges(),
                cert.watch.len(),
                wire.len(),
                cert.repo_epoch
                    .map_or("null".to_string(), |e| e.to_string()),
                stats.nodes_expanded,
            );
        } else {
            cli.say(format!(
                "certificate {} — {} → {}",
                cert.digest_hex(),
                cert.subject.render(),
                cert.role
            ));
            cli.say(format!(
                "  {} edge(s), {} watched id(s), {} wire bytes, repo epoch {}",
                cert.total_edges(),
                cert.watch.len(),
                wire.len(),
                cert.repo_epoch.map_or("-".to_string(), |e| e.to_string()),
            ));
            for id in cert.chain_ids() {
                cli.say(format!("  edge {id}"));
            }
        }
        return 0;
    }
    usage()
}

fn acl(cli: &Cli, args: &[String]) -> i32 {
    let Some(who) = args.first() else { usage() };
    let w = world();
    cli.say(w.acl.render().trim_end());
    let Some(u) = user(&w, who) else { return 2 };
    match w.client_view(u) {
        Some((view, proof)) => {
            let basis = proof
                .map(|p| format!("{}-edge proof", p.edges.len()))
                .unwrap_or_else(|| "catch-all".into());
            psf_telemetry::event(
                "psf.cli",
                "acl.decision",
                vec![
                    ("user", who.clone()),
                    ("view", view.clone()),
                    ("basis", basis.clone()),
                ],
            );
            cli.say(format!("{who} -> {view} ({basis})"));
            0
        }
        None => {
            psf_telemetry::event(
                "psf.cli",
                "acl.decision",
                vec![("user", who.clone()), ("view", "none".into())],
            );
            cli.say(format!("{who} -> no service"));
            0
        }
    }
}

fn plan(cli: &Cli, args: &[String]) -> i32 {
    let Some(node_name) = args.first() else {
        usage()
    };
    let privacy = args.iter().any(|a| a == "--privacy");
    let max_latency: Option<f64> = flag_parsed(args, "--max-latency");
    let w = world();
    let Some(node) = w.sites.network.find_node(node_name) else {
        eprintln!("unknown node '{node_name}' (try ny-0, sd-1, se-0 …)");
        return 2;
    };
    let goal = Goal {
        iface: "MailI".into(),
        client_node: node,
        max_latency_ms: max_latency,
        require_privacy: privacy,
        require_plaintext_delivery: true,
    };
    match w.plan_service(&goal) {
        Ok((plan, stats)) => {
            psf_telemetry::event(
                "psf.cli",
                "plan.found",
                vec![
                    ("node", node_name.clone()),
                    ("steps", plan.steps.len().to_string()),
                    ("deployments", plan.deployments().to_string()),
                    ("expanded", stats.expanded.to_string()),
                ],
            );
            cli.say(format!(
                "plan for MailI at {node_name} (privacy={privacy}, bound={max_latency:?}):"
            ));
            cli.say(plan.render().trim_end());
            cli.say(format!(
                "search: expanded {}, auth-pruned {}",
                stats.expanded, stats.pruned_by_auth
            ));
            0
        }
        Err(e) => {
            psf_telemetry::event(
                "psf.cli",
                "plan.failed",
                vec![("node", node_name.clone()), ("error", e.to_string())],
            );
            cli.say(e.to_string());
            1
        }
    }
}

fn storage(cli: &Cli, args: &[String]) -> i32 {
    let (Some(p), Some(u)) = (
        args.first().and_then(|v| v.parse::<u64>().ok()),
        args.get(1).and_then(|v| v.parse::<u64>().ok()),
    ) else {
        usage()
    };
    let [gsi, cas, drbac] = psf_drbac::storage_model::storage_comparison(p, u, 8, 2 * p);
    psf_telemetry::event(
        "psf.cli",
        "storage.compared",
        vec![("principals", p.to_string()), ("users", u.to_string())],
    );
    cli.say(format!("P={p} U={u} (C=8, c={})", 2 * p));
    for r in [gsi, cas, drbac] {
        cli.say(format!(
            "  {:<6} {:>12} entries  {:>12.1} KiB",
            r.system,
            r.entries,
            r.bytes as f64 / 1024.0
        ));
    }
    0
}

fn view(cli: &Cli, args: &[String]) -> i32 {
    let Some(which) = args.first() else { usage() };
    let spec = match which.as_str() {
        "member" => psf_mail::view_member(),
        "partner" => psf_mail::view_partner(),
        "anonymous" => psf_mail::view_anonymous(),
        other => {
            eprintln!("unknown view '{other}'");
            return 2;
        }
    };
    cli.say(format!("== XML definition ==\n{}", spec.to_xml()));
    let class = mail_client_class();
    match Vig::new(mail_method_library()).generate(&class, &spec) {
        Ok(generated) => {
            psf_telemetry::event(
                "psf.cli",
                "view.generated",
                vec![
                    ("view", spec.name.clone()),
                    ("methods", generated.entries.len().to_string()),
                ],
            );
            cli.say(format!("== generated source ==\n{}", generated.source));
            0
        }
        Err(e) => {
            eprintln!("VIG: {e}");
            1
        }
    }
}

/// Drive the whole framework once — planning, proof search, VIG, secure
/// deployment, heartbeats — then print the metrics registry in Prometheus
/// text format. With `--bare`, skip the workload and print whatever has
/// been recorded so far (typically an idle registry).
fn metrics(cli: &Cli, args: &[String]) -> i32 {
    let bare = args.iter().any(|a| a == "--bare");
    if !bare {
        if let Err(e) = exercise_full_stack(cli) {
            eprintln!("metrics workload failed: {e}");
            return 1;
        }
    }
    // The snapshot goes to stdout even under --quiet: it is the result,
    // not narration.
    print!("{}", psf_telemetry::registry().render_prometheus());
    0
}

/// Static policy analysis (`psf-analysis`): delegation-graph reachability
/// against the Table 2 intent matrix, view/ACL lint over the Table 3/4
/// artifacts, and plan pre-flight for a private WAN delivery — or, with
/// `--fixtures DIR`, analyze every scenario XML in the directory and
/// check each against its `.expected` snapshot.
fn analyze(cli: &Cli, args: &[String]) -> i32 {
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = args
        .windows(2)
        .any(|w| w[0] == "--deny" && w[1] == "warnings");
    let fixtures_dir = args
        .iter()
        .position(|a| a == "--fixtures")
        .and_then(|i| args.get(i + 1));

    if let Some(dir) = fixtures_dir {
        return analyze_fixtures(cli, dir, json);
    }

    let w = world();
    let mut report = psf_analysis::Report::new();

    // Pass 1: delegation graph vs the Table 2 intent matrix.
    let intent = w.expected_grants();
    psf_analysis::analyze_graph(
        &psf_analysis::GraphInput {
            registry: &w.registry,
            repository: &w.repository,
            bus: &w.bus,
            now: w.clock.now(),
            intent: Some(&intent),
            expiry_horizon: 3600,
        },
        &mut report,
    );

    // Pass 2: Table 3 view specs and the Table 4 role→view ACL. The
    // ViewMailServer cache template is deployed by plans, not served
    // through the ACL, so it counts as a deployment root.
    let mut classes = std::collections::HashMap::new();
    classes.insert("MailServer".to_string(), psf_mail::mail_server_class());
    classes.insert("MailClient".to_string(), mail_client_class());
    let views = vec![
        psf_mail::view_member(),
        psf_mail::view_partner(),
        psf_mail::view_anonymous(),
        ViewSpec::new("ViewMailServer", "MailServer").restrict("MailI", ExposureType::Local),
    ];
    psf_analysis::analyze_views(
        &psf_analysis::ViewLintInput {
            classes: &classes,
            views: &views,
            library: &mail_method_library(),
            acl: Some(&w.acl),
            extra_roots: &["ViewMailServer".to_string()],
        },
        &mut report,
    );

    // Pass 3: pre-flight the plan for a private WAN delivery (the same
    // goal `psf plan sd-0 --privacy` serves).
    let goal = Goal {
        iface: "MailI".into(),
        client_node: w.sites.sd[0],
        max_latency_ms: None,
        require_privacy: true,
        require_plaintext_delivery: true,
    };
    match w.plan_service(&goal) {
        Ok((plan, _)) => {
            psf_analysis::analyze_plan(&w.deployer, &w.registrar, &plan, &goal, &mut report)
        }
        Err(e) => report.push(psf_analysis::Diagnostic::global(
            psf_analysis::LintCode::InvalidStepChain,
            format!("planner found no plan to pre-flight: {e}"),
        )),
    }

    let report = psf_analysis::record_run(report);
    psf_telemetry::event(
        "psf.cli",
        "analyze.finished",
        vec![
            ("errors", report.errors().to_string()),
            ("warnings", report.warnings().to_string()),
        ],
    );
    // The report goes to stdout even under --quiet: it is the result.
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.fails(deny_warnings) {
        1
    } else {
        0
    }
}

/// Analyze every `*.xml` scenario under `dir` (fixed analysis time 100,
/// horizon 3600 so snapshots are stable) and compare each rendered
/// report against the sibling `.expected` file when present.
fn analyze_fixtures(cli: &Cli, dir: &str, json: bool) -> i32 {
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "xml"))
            .collect(),
        Err(e) => {
            eprintln!("analyze: cannot read {dir}: {e}");
            return 2;
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("analyze: no scenario XML files in {dir}");
        return 2;
    }
    let mut failed = 0usize;
    for path in &paths {
        let display = path.display();
        let xml = match std::fs::read_to_string(path) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("analyze: cannot read {display}: {e}");
                failed += 1;
                continue;
            }
        };
        let scenario = match psf_analysis::FixtureWorld::parse(&xml) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("analyze: {display}: {e}");
                failed += 1;
                continue;
            }
        };
        let report = psf_analysis::record_run(scenario.analyze(100, 3600));
        cli.say(format!("== {} ==", scenario.name));
        if json {
            print!("{}", report.render_json());
        } else {
            print!("{}", report.render_human());
        }
        let expected_path = path.with_extension("expected");
        match std::fs::read_to_string(&expected_path) {
            Ok(expected) => {
                if report.render_human() == expected {
                    cli.say("   snapshot: ok");
                } else {
                    eprintln!(
                        "analyze: {display}: diagnostics differ from {}",
                        expected_path.display()
                    );
                    failed += 1;
                }
            }
            Err(_) => cli.say("   snapshot: none (informational run)"),
        }
    }
    if failed > 0 {
        eprintln!("analyze: {failed} fixture(s) failed");
        1
    } else {
        0
    }
}

/// Same mixer the deployer uses for its seeded faults: lets the CLI derive
/// per-seed variation (fault placement, degraded latencies) without any
/// wall-clock randomness.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run the mail scenario under a seeded schedule of faults — an injected
/// deploy-step failure, a WAN collapse, a killed channel, a node crash —
/// and verify the supervisor recovers from each. Exits 1 if any phase
/// fails to recover.
fn chaos(cli: &Cli, args: &[String]) -> i32 {
    let seed: u64 = flag_parsed(args, "--seed").unwrap_or(1);
    let wal_root = flag_value(args, "--wal-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("psf-chaos-wal-{seed}")));
    cli.say(format!("chaos: mail scenario, seed {seed}"));

    let reg = psf_telemetry::registry();
    let base_failovers = reg.counter_value("psf.supervisor.failovers");
    let base_rollbacks = reg.counter_value("psf.deploy.rollbacks");
    let base_retries = reg.counter_value("psf.deploy.retries");
    let base_faults = reg.counter_value("psf.deploy.faults.injected");
    let base_degraded = reg.counter_value("psf.supervisor.degraded");
    let base_recoveries = reg.counter_value("psf.supervisor.recoveries");
    let base_revocations = reg.counter_value("psf.drbac.revocations");

    let w = world();
    let cpu_baseline: Vec<u32> = w
        .sites
        .network
        .node_ids()
        .iter()
        .map(|&n| w.sites.network.node(n).unwrap().cpu_available())
        .collect();

    // Every deployment execution runs under this schedule: one explicit
    // fault on the first attempt's second step, plus seeded random faults
    // (25% per step, ≤2 total per execution). With three attempts the
    // final one is always clean, so recovery is guaranteed.
    w.deployer
        .set_fault_plan(Some(DeployFaultPlan::seeded(seed, 25, 2).and_fail_at(1, 1)));
    w.deployer.set_retry_policy(RetryPolicy {
        base_backoff: Duration::from_micros(200),
        jitter_seed: seed,
        ..RetryPolicy::default()
    });

    let goal = Goal {
        iface: "MailI".into(),
        client_node: w.sites.sd[1],
        max_latency_ms: Some(60.0),
        require_privacy: false,
        require_plaintext_delivery: true,
    };
    let mut failures: Vec<String> = Vec::new();
    let phases_run = std::cell::Cell::new(0usize);
    let phase = |name: &str, ok: bool, detail: String, failures: &mut Vec<String>| {
        phases_run.set(phases_run.get() + 1);
        cli.say(format!(
            "  [{}] {name}: {detail}",
            if ok { "ok" } else { "FAIL" }
        ));
        if !ok {
            failures.push(format!("{name}: {detail}"));
        }
    };

    // Phase 1 — initial deployment survives the injected deploy fault.
    let mut sup = match Supervisor::start(
        &w.registrar,
        &w.sites.network,
        &w.oracle,
        PlannerConfig::default(),
        goal,
        &w.deployer,
        w.ny_guard.clone(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chaos: initial deployment unrecoverable: {e}");
            return 1;
        }
    };
    let rb = w.deployer.last_rollback();
    phase(
        "deploy-fault",
        rb.is_some() && sup.state() == SupervisorState::Serving,
        match &rb {
            Some(r) => format!(
                "attempt {} failed at step {}, rolled back {} CPU / {} channels / {} creds, retried",
                r.attempt,
                r.failed_step,
                r.released_cpu,
                r.closed_channels,
                r.revoked_credential_ids.len()
            ),
            None => "no rollback recorded".into(),
        },
        &mut failures,
    );

    // Phase 2 — every WAN link collapses; the supervisor must fail over
    // to a cache view inside San Diego.
    let collapse = 250.0 + (mix64(seed) % 200) as f64;
    for wan in [w.sites.wan_ny_sd, w.sites.wan_ny_se, w.sites.wan_sd_se] {
        w.sites.network.set_latency(wan, collapse);
    }
    let out = sup.tick();
    let cached = sup
        .deployment()
        .map(|d| d.placements.iter().any(|(t, _, _)| t == "ViewMailServer"))
        .unwrap_or(false);
    phase(
        "wan-collapse",
        matches!(out, TickOutcome::FailedOver { .. }) && cached,
        format!("{out:?}, cache deployed: {cached} (latency {collapse} ms)"),
        &mut failures,
    );

    // Phase 3 — the WANs heal; the cheaper direct plan displaces the cache.
    for (wan, ms) in [
        (w.sites.wan_ny_sd, 40.0),
        (w.sites.wan_ny_se, 35.0),
        (w.sites.wan_sd_se, 25.0),
    ] {
        w.sites.network.set_latency(wan, ms);
    }
    let out = sup.tick();
    phase(
        "wan-heal",
        matches!(out, TickOutcome::FailedOver { .. }),
        format!("{out:?}"),
        &mut failures,
    );

    // Phase 4 — kill a live transport out from under the deployment; no
    // network event fires, only the channel-death watcher.
    let killed = match sup.deployment() {
        Some(d) if d.channel_count() > 0 => {
            let idx = (mix64(seed ^ 0xc4a2) as usize) % d.channel_count();
            d.channels[idx].0.close();
            true
        }
        _ => false,
    };
    let out = sup.tick();
    phase(
        "channel-kill",
        killed && matches!(out, TickOutcome::FailedOver { .. }),
        format!("killed: {killed}, {out:?}"),
        &mut failures,
    );

    // Phase 5 — sd-0 carries every WAN into San Diego: crashing it
    // isolates the client. The only safe reaction is teardown.
    w.sites.network.fail_node(w.sites.sd[0]);
    let out = sup.tick();
    phase(
        "node-crash",
        matches!(out, TickOutcome::Degraded(_)) && sup.deployment().is_none(),
        format!("{out:?}"),
        &mut failures,
    );

    // Phase 6 — the node returns; the supervisor recovers end to end.
    w.sites.network.restore_node(w.sites.sd[0]);
    let out = sup.tick();
    let serving = sup
        .endpoint()
        .map(|e| e.call_remote("fetch", b"alice").is_ok())
        .unwrap_or(false);
    phase(
        "node-restore",
        matches!(out, TickOutcome::Recovered) && serving,
        format!("{out:?}, goal re-satisfied: {serving}"),
        &mut failures,
    );

    // Final accounting: teardown must return the network to its baseline.
    sup.shutdown();
    let cpu_after: Vec<u32> = w
        .sites
        .network
        .node_ids()
        .iter()
        .map(|&n| w.sites.network.node(n).unwrap().cpu_available())
        .collect();
    phase(
        "leak-check",
        cpu_after == cpu_baseline,
        format!(
            "cpu available {} -> {}",
            cpu_baseline.iter().sum::<u32>(),
            cpu_after.iter().sum::<u32>()
        ),
        &mut failures,
    );

    // Even under injected faults, the latency objectives must hold — a
    // recovery that only succeeds by blowing every p99 budget is not a
    // recovery the paper's availability story can claim.
    let slo = default_slo_table().evaluate(reg);
    phase(
        "slo-check",
        slo.ok(),
        format!(
            "{} objective(s), {} violation(s)",
            slo.evals.len(),
            slo.violations()
        ),
        &mut failures,
    );
    if !slo.ok() {
        print!("{}", slo.render_text());
    }

    // Phases 9–11 — crash injection on the durable repository: run a
    // seeded publish/revoke workload, damage ONE segment the way a
    // `kill -9` mid-append or bit rot would, recover, and require
    // authorization decisions identical to an oracle built from the
    // surviving records. The other segments must lose nothing.
    for (name, dir, damage) in [
        ("torn shard tail", "torn-shard", CrashDamage::CutShard),
        (
            "flipped byte in a committed shard record",
            "flipped-record",
            CrashDamage::FlipShardRecord,
        ),
        ("torn bus segment", "torn-bus", CrashDamage::CutBus),
    ] {
        let (ok, detail) = crash_phase(&wal_root.join(dir), seed, damage);
        phase(name, ok, detail, &mut failures);
    }

    // The recovery report is the result: print it even under --quiet.
    println!("chaos recovery report (seed {seed}):");
    for (label, name, base) in [
        ("failovers", "psf.supervisor.failovers", base_failovers),
        ("rollbacks", "psf.deploy.rollbacks", base_rollbacks),
        ("retries", "psf.deploy.retries", base_retries),
        ("injected faults", "psf.deploy.faults.injected", base_faults),
        (
            "degraded episodes",
            "psf.supervisor.degraded",
            base_degraded,
        ),
        ("recoveries", "psf.supervisor.recoveries", base_recoveries),
        (
            "credential revocations",
            "psf.drbac.revocations",
            base_revocations,
        ),
    ] {
        println!("  {label:<23} {}", reg.counter_value(name) - base);
    }
    if failures.is_empty() {
        println!("  all {} phases recovered", phases_run.get());
        0
    } else {
        println!("  UNRECOVERED: {}", failures.join("; "));
        1
    }
}

/// What a chaos crash phase does to the durable directory before
/// recovery.
#[derive(Clone, Copy)]
enum CrashDamage {
    /// Cut one shard's log at a seeded byte offset.
    CutShard,
    /// Flip one payload byte of a seeded committed record in one shard's
    /// log.
    FlipShardRecord,
    /// Cut the revocation-bus log at a seeded byte offset.
    CutBus,
}

/// One chaos crash phase: run [`crash_workload`] into a fresh `dir`,
/// apply `damage` to one segment, then [`crash_check`] the recovery.
fn crash_phase(dir: &std::path::Path, seed: u64, damage: CrashDamage) -> (bool, String) {
    use psf_drbac::wal;
    let _ = std::fs::remove_dir_all(dir);
    let grants = match crash_workload(dir, seed) {
        Ok(x) => x,
        Err(e) => return (false, format!("workload: {e}")),
    };
    let segments = match wal::segment_dirs(dir) {
        Ok(s) => s,
        Err(e) => return (false, format!("segments: {e}")),
    };
    let (bus, shards) = segments.split_last().expect("the bus segment is listed");
    let candidates = match damage {
        CrashDamage::CutBus => std::slice::from_ref(bus),
        CrashDamage::CutShard | CrashDamage::FlipShardRecord => shards,
    };
    // The first segment, from a seeded start, holding enough log to damage.
    let start = mix64(seed ^ 0x5eed) as usize;
    let victim = (0..candidates.len())
        .map(|i| candidates[(start + i) % candidates.len()].join(wal::LOG_FILE))
        .find_map(|log| match std::fs::read(&log) {
            Ok(image) if image.len() >= 2 => Some((log, image)),
            _ => None,
        });
    let Some((log, mut image)) = victim else {
        return (false, "no segment log to damage".to_string());
    };
    let what = if let CrashDamage::FlipShardRecord = damage {
        let records = wal::scan_log(&image).records;
        let r = mix64(seed ^ 0xc0de) as usize % records.len();
        // +8 skips the frame header: the flip lands in the CRC-covered
        // payload.
        image[records[r].offset as usize + 8] ^= 0xff;
        format!("record {r}/{} flipped", records.len())
    } else {
        let len = image.len() as u64;
        let cut = 1 + mix64(seed ^ 0x7a11) % (len - 1);
        image.truncate(cut as usize);
        format!("cut at byte {cut}/{len}")
    };
    if let Err(e) = std::fs::write(&log, &image) {
        return (false, format!("cannot damage {}: {e}", log.display()));
    }
    let segment = log.parent().and_then(|p| p.file_name()).unwrap_or_default();
    let (ok, detail) = crash_check(dir, &grants);
    (
        ok,
        format!("{} {what}; {detail}", segment.to_string_lossy()),
    )
}

/// Seeded publish/revoke workload against a fresh 8-shard durable
/// repository at `dir`: twelve self-certifying `CDi.R → ChaosUseri`
/// credentials scattered across the shard segments by subject, the first
/// and a seeded third of the rest revoked. Returns the (domain, user)
/// pairs so callers can re-derive the authorization queries after a crash.
fn crash_workload(
    dir: &std::path::Path,
    seed: u64,
) -> std::io::Result<Vec<(psf_drbac::Entity, psf_drbac::Entity)>> {
    use psf_drbac::wal::{FsyncPolicy, ShardedDurableRepository, WalConfig};
    use psf_drbac::DelegationBuilder;
    let (d, _) = ShardedDurableRepository::open(
        dir,
        8,
        WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        },
    )?;
    let mut grants = Vec::new();
    for i in 0..12u64 {
        let dom = psf_drbac::Entity::with_seed(format!("CD{i}"), b"chaos-wal");
        let user = psf_drbac::Entity::with_seed(format!("ChaosUser{i}"), b"chaos-wal");
        let cred = DelegationBuilder::new(&dom)
            .subject_entity(&user)
            .role(dom.role("R"))
            .sign();
        let id = cred.id();
        d.repository().publish_at_issuer(cred);
        if i == 0 || mix64(seed ^ i).is_multiple_of(3) {
            d.bus().revoke(&id);
        }
        grants.push((dom, user));
    }
    d.sync()?;
    d.detach();
    Ok(grants)
}

/// Rebuild an in-memory oracle from the valid records of EVERY segment of
/// the (damaged) directory — the damaged one contributes only its
/// surviving prefix — recover the directory, and require identical
/// authorization state: same credential ids, same revocation set, and the
/// same `prove` outcome for every grant the workload made. Finally
/// re-open writable (truncating the damage away) and require every
/// segment to verify clean.
fn crash_check(
    dir: &std::path::Path,
    grants: &[(psf_drbac::Entity, psf_drbac::Entity)],
) -> (bool, String) {
    use psf_drbac::entity::EntityRegistry;
    use psf_drbac::repository::Repository;
    use psf_drbac::revocation::RevocationBus;
    use psf_drbac::wal::{self, ShardedDurableRepository, WalConfig};

    let oracle_repo = Repository::new();
    let oracle_bus = RevocationBus::new();
    let segments = match wal::segment_dirs(dir) {
        Ok(s) => s,
        Err(e) => return (false, format!("segments: {e}")),
    };
    for seg in &segments {
        let image = match std::fs::read(seg.join(wal::LOG_FILE)) {
            Ok(b) => b,
            Err(e) => return (false, format!("read {}: {e}", seg.display())),
        };
        for rec in wal::scan_log(&image).records {
            match rec.op {
                wal::WalOp::Publish { home, tag, cred } => {
                    oracle_repo.publish(home, cred, tag);
                }
                wal::WalOp::Revoke { id } => oracle_bus.revoke(&id),
                wal::WalOp::RevokeBatch { ids } => {
                    oracle_bus.revoke_all(&ids);
                }
                wal::WalOp::PurgeExpired { .. } => {
                    return (false, "purge record: the workload never purges".to_string())
                }
            }
        }
    }

    let (rec_repo, rec_bus, report) = match Repository::recover_sharded(dir) {
        Ok(x) => x,
        Err(e) => return (false, format!("recover: {e}")),
    };

    let registry = EntityRegistry::new();
    for (dom, user) in grants {
        registry.register(dom);
        registry.register(user);
    }
    let oracle_engine = ProofEngine::new(&registry, &oracle_repo, &oracle_bus, 0);
    let rec_engine = ProofEngine::new(&registry, &rec_repo, &rec_bus, 0);
    for (dom, user) in grants {
        let (subject, role) = (user.as_subject(), dom.role("R"));
        if oracle_engine.check(&subject, &role, &[]) != rec_engine.check(&subject, &role, &[]) {
            return (false, format!("decision divergence on {role}"));
        }
    }
    let agree = grants.len();
    let sorted_ids = |repo: &Repository| {
        let mut v: Vec<String> = repo.all_credentials().iter().map(|c| c.id()).collect();
        v.sort();
        v
    };
    let creds_match = sorted_ids(&oracle_repo) == sorted_ids(&rec_repo);
    let revoked_match = oracle_bus.revoked_ids() == rec_bus.revoked_ids();
    if !creds_match || !revoked_match {
        return (
            false,
            format!("state divergence (creds: {creds_match}, revocations: {revoked_match})"),
        );
    }

    // Writable reopen truncates the damage away (the shard count on disk
    // wins over the one passed); afterwards every segment must verify
    // clean and replay the same records.
    match ShardedDurableRepository::open(dir, 1, WalConfig::default()) {
        Ok((d, rep2)) => {
            d.detach();
            if rep2.records_replayed != report.records_replayed {
                return (
                    false,
                    "writable reopen replays a different count".to_string(),
                );
            }
        }
        Err(e) => return (false, format!("reopen: {e}")),
    }
    match wal::verify_sharded_dir(dir) {
        Ok(v) if v.is_clean() => (
            true,
            format!(
                "{} record(s) replayed, {} byte(s) truncated, {agree} decision(s) agree",
                report.records_replayed, report.truncated_bytes
            ),
        ),
        Ok(v) => (
            false,
            format!("segment(s) {:?} not clean after recovery", v.damaged()),
        ),
        Err(e) => (false, format!("verify: {e}")),
    }
}

/// Seed `n` synthetic publish records (plus a revocation every 64) into
/// the durable repository at `dir`, created with `shards` segments when
/// it does not exist yet. Signatures are dummies — recovery replay never
/// verifies them — which keeps multi-100k fills fast.
fn fill_repo_dir(dir: &std::path::Path, shards: usize, n: usize) -> std::io::Result<()> {
    use psf_drbac::entity::{EntityName, Subject};
    use psf_drbac::wal::{FsyncPolicy, ShardedDurableRepository, WalConfig};
    use psf_drbac::{AttrSet, Delegation, DelegationKind, DiscoveryTag, SignedDelegation};
    let (d, _) = ShardedDurableRepository::open(
        dir,
        shards,
        WalConfig {
            fsync: FsyncPolicy::Never,
            auto_compact_appends: None,
        },
    )?;
    let issuer = psf_drbac::Entity::with_seed("FillHome", b"fill-wal");
    let key = issuer.public_key();
    for i in 0..n {
        let body = Delegation {
            subject: Subject::Entity {
                name: EntityName(format!("U{i}")),
                key,
            },
            object: issuer.role(format!("R{}", i % 1024)),
            kind: DelegationKind::SelfCertifying,
            issuer: issuer.name.clone(),
            attrs: AttrSet::new(),
            expires: None,
            monitored: false,
            serial: i as u64,
        };
        let cred = SignedDelegation {
            body,
            signature: psf_crypto::ed25519::Signature([0u8; 64]),
        };
        d.repository()
            .publish(issuer.name.clone(), cred, DiscoveryTag::Both);
        if i.is_multiple_of(64) {
            d.bus().revoke(&format!("deadbeef{i:08x}"));
        }
    }
    d.sync()
}

/// Inspect or maintain a durable credential repository directory:
/// `--verify` (integrity check of every segment, exit 1 if ANY is
/// damaged) and `--stats` (replay counts + per-shard rows) are read-only;
/// `--compact` opens the directory writable (importing a legacy
/// single-log directory first) and snapshots + truncates every segment;
/// `--fill N` seeds synthetic records for demos, creating the
/// directory with `--shards S` segments when it does not exist.
fn repo_cmd(cli: &Cli, args: &[String]) -> i32 {
    use psf_drbac::repository::Repository;
    use psf_drbac::wal::{self, ShardedDurableRepository, WalConfig};
    let Some(dir) = flag_value(args, "--dir").map(std::path::PathBuf::from) else {
        eprintln!("repo: --dir DIR is required");
        return 2;
    };
    let verify = args.iter().any(|a| a == "--verify");
    let compact = args.iter().any(|a| a == "--compact");
    let stats = args.iter().any(|a| a == "--stats");
    let fill: Option<usize> = flag_parsed(args, "--fill");
    let shards: usize = flag_parsed(args, "--shards").unwrap_or(psf_drbac::DEFAULT_SHARD_COUNT);

    if let Some(n) = fill {
        if let Err(e) = fill_repo_dir(&dir, shards, n) {
            eprintln!("repo: fill failed: {e}");
            return 1;
        }
        cli.say(format!("repo: {n} synthetic record(s) appended"));
    }
    if !dir.is_dir() {
        eprintln!("repo: {} is not a directory", dir.display());
        return 2;
    }

    if compact {
        // The shard count on disk wins over the one passed.
        let (d, report) = match ShardedDurableRepository::open(&dir, shards, WalConfig::default()) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("repo: open failed: {e}");
                return 1;
            }
        };
        match d.compact() {
            Ok(r) => cli.say(format!(
                "repo: compacted — snapshot {} credential(s) + {} revocation(s), \
                 {} log byte(s) dropped ({} record(s) were replayed)",
                r.snapshot_entries,
                r.snapshot_revocations,
                r.log_bytes_dropped,
                report.records_replayed
            )),
            Err(e) => {
                eprintln!("repo: compaction failed: {e}");
                return 1;
            }
        }
    }

    let v = match wal::verify_sharded_dir(&dir) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("repo: verify failed: {e}");
            return 1;
        }
    };
    if verify || stats || (!compact && fill.is_none()) {
        cli.say(format!(
            "repo: {} ({} shard(s))",
            dir.display(),
            v.shards.len()
        ));
    }
    if stats {
        // Read-only, like --verify: a writable open would truncate the
        // very torn tails this is asked to report on. The replay report
        // and occupancy columns come from an in-memory recovery, the byte
        // and last-compaction columns from the files.
        let (repo, bus, report) = match Repository::recover_sharded(&dir) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("repo: recover failed: {e}");
                return 1;
            }
        };
        cli.say(format!(
            "  replay: {} publish(es), {} revocation(s) restored, \
             {} duplicate(s) skipped, {} purge record(s), epoch {}",
            report.publishes,
            report.revocations_restored,
            report.duplicates_skipped,
            report.purges,
            report.epoch
        ));
        cli.say(format!(
            "  live: {} credential(s) across {} home(s), {} revoked id(s)",
            repo.len(),
            repo.home_count(),
            bus.revoked_count()
        ));
        let file_columns = |s: &wal::VerifyReport| {
            format!(
                "{:>9}  {:>10}  {}",
                s.valid_bytes + s.truncated_bytes,
                s.snapshot_bytes,
                match s.snapshot_epoch {
                    0 => "never".to_string(),
                    epoch => format!("epoch {epoch}"),
                }
            )
        };
        cli.say("  shard  entries  subj-keys  tag-keys  wal-bytes  snap-bytes  last-compact");
        for (info, seg) in repo.shard_infos().iter().zip(&v.shards) {
            cli.say(format!(
                "  {:>5}  {:>7}  {:>9}  {:>8}  {}",
                info.index,
                info.entries,
                info.subject_keys,
                info.tag_keys,
                file_columns(seg)
            ));
        }
        cli.say(format!(
            "  {:>5}  {:>7}  {:>9}  {:>8}  {}",
            "bus",
            bus.revoked_count(),
            "-",
            "-",
            file_columns(&v.bus)
        ));
    }
    if verify {
        for (i, s) in v.shards.iter().enumerate() {
            if !s.is_clean() {
                cli.say(format!(
                    "  shard {i}: {} record(s), {} truncated byte(s){}",
                    s.log_records,
                    s.truncated_bytes,
                    s.corruption
                        .as_deref()
                        .map(|r| format!(", corruption: {r}"))
                        .unwrap_or_default()
                ));
            }
        }
        if !v.bus.is_clean() {
            cli.say("  bus segment damaged");
        }
        if v.is_clean() {
            cli.say("verdict: clean");
        } else {
            // Damage verdicts print even under --quiet: this is the CI gate.
            println!(
                "verdict: DAMAGED ({} segment(s) torn or corrupt)",
                v.damaged().len()
            );
            return 1;
        }
    }
    0
}

/// Take the value following `--flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parse the value following `--flag`; `None` only when the flag is
/// absent. A value that does not parse (or a flag with nothing after it)
/// is a usage error, never a silent default: name both and exit 2.
fn flag_parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    let value = args.get(at + 1).map_or("", String::as_str);
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("psf: bad value '{value}' for {flag}");
            std::process::exit(2);
        }
    }
}

/// The default latency SLO table `psf slo` and the chaos harness
/// evaluate. Budgets are deliberately generous — they gate
/// pathological tails (a proof search that fell off the cache fast path,
/// an RPC or a heartbeat stuck behind a stalled reader or a blocked
/// shard), not ordinary debug-build noise.
fn default_slo_table() -> psf_telemetry::SloTable {
    use psf_telemetry::Percentile::P99;
    psf_telemetry::SloTable::new()
        .objective("psf.drbac.prove.us", P99, 100_000)
        .objective("psf.swbd.rpc.us", P99, 100_000)
        .objective("psf.swbd.hb.rtt.us", P99, 100_000)
        .objective("psf.swbd.handshake.us", P99, 1_000_000)
        .objective("psf.planner.plan.us", P99, 500_000)
        .objective("psf.deploy.step.us", P99, 500_000)
        .objective("psf.views.vig.us", P99, 250_000)
}

/// Run the full stack to populate the audit trail, then replay it with
/// optional subject / verdict / trace filters.
fn audit_cmd(cli: &Cli, args: &[String]) -> i32 {
    let json = args.iter().any(|a| a == "--json");
    let deny_only = args.iter().any(|a| a == "--deny-only");
    let subject = flag_value(args, "--subject");
    let trace: Option<TraceId> = flag_parsed(args, "--trace");
    if let Err(e) = exercise_full_stack(cli) {
        eprintln!("audit: full-stack run failed: {e}");
        return 1;
    }
    let log = psf_telemetry::audit::global();
    let records = log.query(subject, deny_only, trace);
    if json {
        for r in &records {
            println!("{}", psf_telemetry::AuditLog::render_jsonl(r));
        }
        return 0;
    }
    println!(
        "{:>5}  {:<11} {:<22} {:<26} {:<7} {:<8} {:<16}  detail",
        "seq", "decision", "subject", "object", "verdict", "cache", "chain"
    );
    for r in &records {
        println!(
            "{:>5}  {:<11} {:<22} {:<26} {:<7} {:<8} {:<16}  {}",
            r.seq,
            r.decision.as_str(),
            r.subject,
            r.object,
            r.verdict.as_str(),
            r.cache.as_str(),
            if r.chain_digest.is_empty() {
                "-"
            } else {
                &r.chain_digest
            },
            r.detail
        );
    }
    println!(
        "{} record(s) ({} dropped under capacity pressure)",
        records.len(),
        log.dropped()
    );
    0
}

fn render_tree(spans: &[ExportedSpan], trace: TraceId) {
    let members: Vec<&ExportedSpan> = spans.iter().filter(|s| s.trace == Some(trace)).collect();
    println!("trace {trace} ({} spans)", members.len());
    let ids: std::collections::HashSet<u64> = members.iter().map(|s| s.id).collect();
    fn walk(
        members: &[&ExportedSpan],
        parent: Option<u64>,
        depth: usize,
        ids: &std::collections::HashSet<u64>,
    ) {
        for s in members {
            // Roots: no parent, or a parent outside the buffer (evicted or
            // belonging to another process's half of the trace).
            let is_root_here = match s.parent {
                None => parent.is_none(),
                Some(p) if !ids.contains(&p) => parent.is_none(),
                Some(p) => parent == Some(p),
            };
            if is_root_here {
                println!(
                    "{:indent$}{}/{} ({} us)",
                    "",
                    s.target,
                    s.name,
                    s.dur_us,
                    indent = 2 + depth * 2
                );
                walk(members, Some(s.id), depth + 1, ids);
            }
        }
    }
    walk(&members, None, 0, &ids);
}

/// Render causal span trees from the in-memory buffer (after a full-stack
/// run) or from a `--trace-out` file; `--verify` is the CI
/// trace-completeness gate (zero orphan parents).
fn trace_cmd(cli: &Cli, args: &[String]) -> i32 {
    let verify = args.iter().any(|a| a == "--verify");
    let tree: Option<TraceId> = flag_parsed(args, "--tree");
    let exemplar_metric = flag_value(args, "--exemplar").map(str::to_string);
    let spans = match flag_value(args, "--in") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => psf_telemetry::read_jsonl(&text),
            Err(e) => {
                eprintln!("trace: cannot read {path}: {e}");
                return 1;
            }
        },
        None => {
            if let Err(e) = exercise_full_stack(cli) {
                eprintln!("trace: full-stack run failed: {e}");
                return 1;
            }
            let records = psf_telemetry::tracer().snapshot();
            records.into_iter().map(ExportedSpan::from).collect()
        }
    };

    if verify {
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let oldest = spans.iter().map(|s| s.id).min().unwrap_or(0);
        // A parent older than the oldest buffered span was evicted by the
        // ring, not lost by propagation; only dangling references to spans
        // that should still be present count as orphans.
        let orphans: Vec<&ExportedSpan> = spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| p >= oldest && !ids.contains(&p)))
            .collect();
        let traces: std::collections::HashSet<TraceId> =
            spans.iter().filter_map(|s| s.trace).collect();
        let traceless = spans.iter().filter(|s| s.trace.is_none()).count();
        println!(
            "trace verify: {} spans, {} traces, {} traceless events, {} orphan parent(s)",
            spans.len(),
            traces.len(),
            traceless,
            orphans.len()
        );
        if !orphans.is_empty() {
            for s in orphans.iter().take(10) {
                eprintln!(
                    "  orphan: span {} {}/{} references missing parent {}",
                    s.id,
                    s.target,
                    s.name,
                    s.parent.unwrap()
                );
            }
            eprintln!("trace verify FAILED: {} orphan parent(s)", orphans.len());
            return 1;
        }
        return 0;
    }

    if let Some(metric) = exemplar_metric {
        let snap = psf_telemetry::registry().histogram_snapshot(&metric);
        match snap.and_then(|s| s.exemplar) {
            Some((trace, value)) => {
                println!("exemplar for {metric}: trace {trace} sample {value} us");
                render_tree(&spans, trace);
                return 0;
            }
            None => {
                eprintln!("trace: no exemplar recorded for {metric}");
                return 1;
            }
        }
    }

    if let Some(trace) = tree {
        render_tree(&spans, trace);
        return 0;
    }

    // No selector: list the traces in the buffer, largest first.
    let mut by_trace: std::collections::HashMap<TraceId, (usize, u64)> =
        std::collections::HashMap::new();
    for s in &spans {
        if let Some(t) = s.trace {
            let e = by_trace.entry(t).or_default();
            e.0 += 1;
            e.1 = e.1.max(s.dur_us);
        }
    }
    let mut traces: Vec<(TraceId, (usize, u64))> = by_trace.into_iter().collect();
    traces.sort_by_key(|(_, (n, _))| std::cmp::Reverse(*n));
    println!("{:<32} {:>6} {:>12}", "trace", "spans", "max_dur_us");
    for (t, (n, max)) in &traces {
        println!("{t:<32} {n:>6} {max:>12}");
    }
    cli.say(format!(
        "{} trace(s); `psf trace --tree HEX` renders one",
        traces.len()
    ));
    0
}

/// Run the full stack and evaluate the default SLO table.
fn slo_cmd(cli: &Cli, args: &[String]) -> i32 {
    let check = args.iter().any(|a| a == "--check");
    let json = args.iter().any(|a| a == "--json");
    if let Err(e) = exercise_full_stack(cli) {
        eprintln!("slo: full-stack run failed: {e}");
        return 1;
    }
    let report = default_slo_table().evaluate(psf_telemetry::registry());
    if json {
        print!("{}", report.render_jsonl());
    } else {
        print!("{}", report.render_text());
    }
    if check && !report.ok() {
        eprintln!(
            "slo --check FAILED: {} objective(s) over budget",
            report.violations()
        );
        return 1;
    }
    0
}

/// One representative end-to-end pass over the mail scenario, touching
/// every instrumented subsystem.
fn exercise_full_stack(cli: &Cli) -> Result<(), String> {
    let w = world();

    // Privacy across the insecure WAN: planner + proof search + secure
    // Switchboard channels + encryptor/decryptor middleware.
    let privacy_goal = Goal::private("MailI", w.sites.sd[1]);
    let (plan, deployment) = w
        .deliver(&privacy_goal)
        .map_err(|e| format!("privacy delivery: {e}"))?;
    cli.say(format!(
        "delivered MailI to sd-1 with privacy: {} steps, {} channels",
        plan.steps.len(),
        deployment.channel_count()
    ));
    deployment
        .endpoint
        .call_remote("fetch", b"alice")
        .map_err(|e| format!("endpoint call: {e}"))?;
    deployment.teardown(Some(&w.sites.network), &w.ny_guard);

    // A tight latency bound forces the cache view: VIG generation.
    let latency_goal = Goal {
        iface: "MailI".into(),
        client_node: w.sites.sd[0],
        max_latency_ms: Some(10.0),
        require_privacy: false,
        require_plaintext_delivery: true,
    };
    let (plan, deployment) = w
        .deliver(&latency_goal)
        .map_err(|e| format!("latency delivery: {e}"))?;
    cli.say(format!(
        "delivered MailI to sd-0 under 10 ms: {} deployments",
        plan.deployments()
    ));
    deployment.teardown(Some(&w.sites.network), &w.ny_guard);

    // Table 4 decisions exercise the dRBAC proof search further.
    for who in [&w.alice, &w.bob, &w.charlie] {
        let _ = w.client_view(who);
    }

    // One static-analysis pass over the delegation graph populates the
    // psf.analysis.* counters.
    let intent = w.expected_grants();
    let mut report = psf_analysis::Report::new();
    psf_analysis::analyze_graph(
        &psf_analysis::GraphInput {
            registry: &w.registry,
            repository: &w.repository,
            bus: &w.bus,
            now: w.clock.now(),
            intent: Some(&intent),
            expiry_horizon: 3600,
        },
        &mut report,
    );
    let report = psf_analysis::record_run(report);
    cli.say(format!(
        "static analysis: {} error(s), {} warning(s)",
        report.errors(),
        report.warnings()
    ));

    // A heartbeat over a plain channel pair populates the RTT histogram.
    let cfg = psf_switchboard::ChannelConfig {
        heartbeat_interval: None,
        rpc_timeout: Duration::from_secs(2),
        ..Default::default()
    };
    let (a, b) = psf_switchboard::pair_in_memory_plain(cfg);
    a.send_heartbeat().map_err(|e| format!("heartbeat: {e}"))?;
    for _ in 0..500 {
        if a.last_rtt().is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = a.stats();
    cli.say(format!(
        "heartbeat RTT: {:?} ({} sent, {} frames out)",
        stats.last_rtt, stats.heartbeats_sent, stats.traffic.frames_sent
    ));
    a.close();
    b.close();
    Ok(())
}
