//! OPERATIONS.md stays truthful.
//!
//! The telemetry glossary in `OPERATIONS.md` (between the
//! `glossary:begin` / `glossary:end` markers) is the operator-facing
//! contract for every metric name the simulator can emit. This suite
//! parses that table and diffs it against live registry snapshots in
//! both directions:
//!
//! * **no undocumented metrics** — every name a live run registers must
//!   match a documented pattern, so adding a counter without a glossary
//!   row fails here;
//! * **no phantom documentation** — every documented pattern must be
//!   observed live, so renaming or deleting a counter without updating
//!   the glossary fails here too.
//!
//! It also checks that every `scripts/…` and `bench/….sh` path and every
//! `--bin` binary the four top-level docs name is in the tree, that
//! OPERATIONS.md names every `legion-bench` binary, that every
//! `` `legion-<crate>::<name>` `` README.md and DESIGN.md write is a
//! module file or a `pub` item of that crate, that the
//! configuration-surface table has one row per `pub` field of the run
//! configs, that every first-party manifest's dependencies are the
//! ones `bench/Cargo.lock` records, and that every library `pub fn` is
//! reached from outside its own unit tests.
//!
//! Pattern language: literal dot-separated names with `{g}`-style
//! placeholders matching one-or-more digits and `{a,b}`-style brace
//! lists matching any alternative.

use legion_core::system::legion_setup;
use legion_core::{run_epoch, LegionConfig};
use legion_fleet::scenarios::{
    churn, clique_machine, fleet, golden, golden_dataset, oversub_drift, router_qos,
};
use legion_fleet::{serve_fleet, FleetConfig};
use legion_hw::UplinkConfig;
use legion_serve::{serve, MutationSource, PolicyKind, ServeConfig};
use legion_telemetry::Snapshot;

/// Every backticked name in the first column of the OPERATIONS.md
/// tables between the `<!-- {section}:begin -->` / `:end` markers.
fn first_column_names(section: &str) -> Vec<String> {
    let doc = include_str!("../OPERATIONS.md");
    let start = doc
        .find(&format!("<!-- {section}:begin -->"))
        .unwrap_or_else(|| panic!("OPERATIONS.md must keep the {section}:begin marker"));
    let end = doc
        .find(&format!("<!-- {section}:end -->"))
        .unwrap_or_else(|| panic!("OPERATIONS.md must keep the {section}:end marker"));
    let mut patterns = Vec::new();
    for line in doc[start..end].lines() {
        let line = line.trim();
        if !line.starts_with("| `") {
            continue;
        }
        let cell = line
            .trim_start_matches('|')
            .split('|')
            .next()
            .expect("table row has a first cell");
        let mut rest = cell;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            patterns.push(after[..close].to_string());
            rest = &after[close + 1..];
        }
    }
    patterns
}

/// The glossary rows of OPERATIONS.md.
fn glossary_patterns() -> Vec<String> {
    let patterns = first_column_names("glossary");
    assert!(
        patterns.len() > 40,
        "glossary parse collapsed: only {} patterns",
        patterns.len()
    );
    patterns
}

/// Whether `name` matches `pattern`, where `{a,b}` is an alternative
/// list and any other `{x}` placeholder is one-or-more digits.
fn matches(pattern: &str, name: &str) -> bool {
    let Some(open) = pattern.find('{') else {
        return pattern == name;
    };
    let (literal, rest_p) = pattern.split_at(open);
    let Some(rest_n) = name.strip_prefix(literal) else {
        return false;
    };
    let close = rest_p.find('}').expect("unbalanced brace in pattern");
    let inner = &rest_p[1..close];
    let tail = &rest_p[close + 1..];
    if inner.contains(',') {
        inner
            .split(',')
            .any(|alt| rest_n.strip_prefix(alt).is_some_and(|r| matches(tail, r)))
    } else {
        let digits = rest_n.chars().take_while(char::is_ascii_digit).count();
        (1..=digits).any(|k| matches(tail, &rest_n[k..]))
    }
}

/// All metric names (counters, gauges, histograms) in a snapshot.
fn live_names(snapshot: &Snapshot) -> Vec<String> {
    snapshot
        .counters
        .iter()
        .map(|c| c.name.clone())
        .chain(snapshot.gauges.iter().map(|g| g.name.clone()))
        .chain(snapshot.histograms.iter().map(|h| h.name.clone()))
        .collect()
}

/// Live snapshots spanning the metric namespaces: a two-server fleet
/// run with the contention-aware fabric and streaming mutations on
/// (fleet.*, fleet.uplink.*, fleet.resize.*, fleet.mut.*,
/// serve.remote.* including the coalescing triple, and the per-server
/// serving engine with graph.mut.* / serve.invalidate.*), an
/// oversubscribed drifting re-plan run (serve.store.*, store.nvme.*,
/// serve.phase*, serve.replan.*), a residency-routed run with QoS
/// classes (serve.route.*, serve.class*) and one Legion training epoch
/// (epoch.*, cache_fill.*, pcm.*, stage.*).
fn live_snapshots() -> Vec<Snapshot> {
    let d = golden_dataset();
    let churned = ServeConfig {
        mutations: Some(MutationSource::Generate(churn())),
        ..golden(PolicyKind::StaticHot)
    };
    let fleet = FleetConfig {
        uplink: Some(UplinkConfig::default()),
        coalesce: true,
        resize_on_drift: true,
        ..fleet(2)
    };
    let spec = clique_machine();
    let report = serve_fleet(&d.graph, &d.features, &spec, &churned, &fleet);
    let mut snaps = vec![report.metrics.clone()];
    snaps.extend(report.per_server.iter().map(|r| r.metrics.clone()));

    let store_cfg = oversub_drift(golden(PolicyKind::Replan));
    snaps.push(serve(&d.graph, &d.features, &spec.build(), &store_cfg).metrics);
    let routed = router_qos(golden(PolicyKind::StaticHot));
    snaps.push(serve(&d.graph, &d.features, &spec.build(), &routed).metrics);

    let config = LegionConfig::small();
    let server = spec.build();
    let ctx = config.build_context(&d, &server);
    let setup = legion_setup(&ctx, &config).expect("Legion fits the clique machine");
    snaps.push(run_epoch(&setup, &ctx, &config).metrics);
    snaps
}

/// Every metric a live run registers is documented in OPERATIONS.md.
#[test]
fn live_registry_has_no_undocumented_metrics() {
    let patterns = glossary_patterns();
    let mut undocumented = Vec::new();
    for snap in live_snapshots() {
        for name in live_names(&snap) {
            if !patterns.iter().any(|p| matches(p, &name)) && !undocumented.contains(&name) {
                undocumented.push(name);
            }
        }
    }
    assert!(
        undocumented.is_empty(),
        "metrics registered live but missing from the OPERATIONS.md glossary: {undocumented:?}"
    );
}

/// Every glossary row matches a metric some live run registers: the
/// glossary does not describe metrics that no longer exist under those
/// names.
#[test]
fn documented_core_metrics_are_observed_live() {
    let live: Vec<String> = live_snapshots().iter().flat_map(live_names).collect();
    let phantom: Vec<String> = glossary_patterns()
        .into_iter()
        .filter(|p| !live.iter().any(|n| matches(p, n)))
        .collect();
    assert!(
        phantom.is_empty(),
        "glossary rows that no live run registers: {phantom:?}"
    );
}

/// `Struct::field` for every `pub` field of `pub struct {name}` in
/// `source`.
fn pub_fields(source: &str, name: &str) -> Vec<String> {
    let open = format!("pub struct {name} {{");
    let body = source
        .split_once(&open)
        .unwrap_or_else(|| panic!("no `{open}` in the source"))
        .1;
    let body = &body[..body.find("\n}").expect("struct body closes")];
    body.lines()
        .filter_map(|line| line.trim().strip_prefix("pub "))
        .filter_map(|decl| decl.split_once(':'))
        .map(|(field, _)| format!("{name}::{field}"))
        .collect()
}

/// The configuration-surface table lists exactly the `pub` fields of
/// the run configs: a field added without a row, or a row left behind
/// by a deleted field, fails here.
#[test]
fn config_surface_is_documented() {
    assert_eq!(
        pub_fields(
            "pub struct S {\n    /// Doc.\n    pub a: u8,\n    b: u8,\n    pub c: Vec<u8>,\n}\n",
            "S"
        ),
        ["S::a", "S::c"]
    );
    let structs = [
        (
            "ServeConfig",
            include_str!("../crates/legion-serve/src/lib.rs"),
        ),
        (
            "ClassConfig",
            include_str!("../crates/legion-serve/src/lib.rs"),
        ),
        (
            "StoreConfig",
            include_str!("../crates/legion-serve/src/lib.rs"),
        ),
        (
            "ReplanConfig",
            include_str!("../crates/legion-serve/src/replan.rs"),
        ),
        (
            "RouterConfig",
            include_str!("../crates/legion-router/src/dispatch.rs"),
        ),
        (
            "FleetConfig",
            include_str!("../crates/legion-fleet/src/lib.rs"),
        ),
        (
            "UplinkConfig",
            include_str!("../crates/legion-hw/src/net.rs"),
        ),
        (
            "ChurnConfig",
            include_str!("../crates/legion-dyn/src/lib.rs"),
        ),
        (
            "LegionConfig",
            include_str!("../crates/legion-core/src/config.rs"),
        ),
    ];
    let fields: Vec<String> = structs
        .iter()
        .flat_map(|(name, source)| pub_fields(source, name))
        .collect();
    let rows = first_column_names("config");
    let undocumented: Vec<&String> = fields.iter().filter(|f| !rows.contains(f)).collect();
    assert!(
        undocumented.is_empty(),
        "pub config fields missing from the OPERATIONS.md configuration surface: {undocumented:?}"
    );
    let phantom: Vec<&String> = rows.iter().filter(|r| !fields.contains(r)).collect();
    assert!(
        phantom.is_empty(),
        "OPERATIONS.md configuration surface documents fields no config has: {phantom:?}"
    );
    assert_eq!(rows.len(), fields.len(), "a field has two rows");
}

/// The pattern matcher itself: placeholders, alternation, anchoring.
#[test]
fn pattern_matcher_semantics() {
    assert!(matches("serve.offered", "serve.offered"));
    assert!(!matches("serve.offered", "serve.offered_extra"));
    assert!(matches("serve.gpu{g}.batches", "serve.gpu12.batches"));
    assert!(!matches("serve.gpu{g}.batches", "serve.gpu.batches"));
    assert!(matches(
        "serve.phase{k}.feature_{hits,misses}",
        "serve.phase003.feature_misses"
    ));
    assert!(!matches(
        "serve.phase{k}.feature_{hits,misses}",
        "serve.phase003.feature_count"
    ));
    assert!(matches(
        "traffic.dst{d}.src{s}_bytes",
        "traffic.dst0.src3_bytes"
    ));
    assert!(!matches("fleet.server{s}.routed", "fleet.serverX.routed"));
}

/// Every `scripts/<name>` and `bench/<name>.sh` path in `doc`, in order
/// of appearance: the words of path characters that start with one of
/// the two directories (so `crates/legion-bench/x.sh` is not one), less
/// a leading `./` and a sentence's full stop.
fn script_paths(doc: &str) -> Vec<&str> {
    doc.split(|c: char| !(c.is_ascii_alphanumeric() || "_-./".contains(c)))
        .map(|word| word.trim_start_matches("./").trim_end_matches('.'))
        .filter(|path| {
            path.strip_prefix("scripts/")
                .is_some_and(|name| !name.is_empty())
                || (path.starts_with("bench/") && path.ends_with(".sh"))
        })
        .collect()
}

/// A doc cannot outlive the script it tells the reader to run.
#[test]
fn documented_scripts_exist() {
    assert_eq!(
        script_paths(
            "run `scripts/a_b.sh`, ./bench/run.sh --quick, then scripts/ab.sh. \
             Not crates/legion-bench/x.sh, bench/src/x.rs, scripts/ or bench/."
        ),
        ["scripts/a_b.sh", "bench/run.sh", "scripts/ab.sh"]
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let docs = [
        ("README.md", include_str!("../README.md")),
        ("OPERATIONS.md", include_str!("../OPERATIONS.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
        ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
    ];
    let mut named = 0;
    for (doc_name, doc) in docs {
        for path in script_paths(doc) {
            named += 1;
            assert!(
                root.join(path).is_file(),
                "{doc_name} names `{path}`, which is not in the tree"
            );
        }
    }
    assert!(
        named >= 4,
        "script-path parse collapsed: only {named} found"
    );
}

/// Every `--bin <name>` in `doc`, in order of appearance.
fn bin_names(doc: &str) -> Vec<&str> {
    doc.match_indices("--bin ")
        .filter_map(|(at, flag)| {
            doc[at + flag.len()..]
                .split(|c: char| !(c.is_ascii_alphanumeric() || "_-".contains(c)))
                .next()
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// The `[[bin]]` target names of a `Cargo.toml`, in order.
fn manifest_bins(manifest: &str) -> Vec<&str> {
    manifest
        .split("[[bin]]")
        .skip(1)
        .filter_map(|block| {
            block
                .lines()
                .find_map(|line| line.trim().strip_prefix("name = "))
        })
        .map(|name| name.trim_matches('"'))
        .collect()
}

/// A doc cannot tell the reader to run a binary `legion-bench` no longer
/// builds, and OPERATIONS.md names every binary it does build.
#[test]
fn documented_binaries_exist() {
    assert_eq!(
        bin_names("run `--bin figures -- fig02`, then --bin simctl; not --binary x or --bin ."),
        ["figures", "simctl"]
    );
    assert_eq!(
        manifest_bins(
            "[package]\nname = \"x\"\n\n[[bin]]\nname = \"a\"\npath = \"a.rs\"\n\n\
             [[bin]]\nname = \"b\"\n"
        ),
        ["a", "b"]
    );
    let bins = manifest_bins(include_str!("../crates/legion-bench/Cargo.toml"));
    assert!(!bins.is_empty(), "[[bin]] parse collapsed");
    let docs = [
        ("README.md", include_str!("../README.md")),
        ("OPERATIONS.md", include_str!("../OPERATIONS.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
        ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
    ];
    let mut named = 0;
    for (doc_name, doc) in docs {
        for bin in bin_names(doc) {
            named += 1;
            assert!(
                bins.contains(&bin),
                "{doc_name} runs `--bin {bin}`, which legion-bench does not build"
            );
        }
    }
    assert!(named >= 4, "--bin parse collapsed: only {named} found");
    let operations = include_str!("../OPERATIONS.md");
    for bin in bins {
        assert!(
            operations.contains(&format!("`{bin}`")),
            "legion-bench builds `{bin}`, which OPERATIONS.md does not name"
        );
    }
}

/// Every backticked `legion-<crate>::<path>` in `doc` as a
/// `(crate, path)` pair; a trailing `{a,b}` list gives one pair per
/// alternative.
fn crate_item_paths(doc: &str) -> Vec<(&str, String)> {
    let mut out = Vec::new();
    for (at, _) in doc.match_indices("`legion-") {
        let rest = &doc[at + 1..];
        let Some((krate, path)) = rest
            .find('`')
            .and_then(|close| rest[..close].split_once("::"))
        else {
            continue;
        };
        let (stem, alternatives) = path.split_once('{').unwrap_or((path, ""));
        for alt in alternatives.trim_end_matches('}').split(',') {
            out.push((krate, format!("{stem}{alt}")));
        }
    }
    out
}

/// The `.rs` files under `dir`, recursively (none if it is no directory).
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// How often `text` writes the sum `first + … last`: `first`, a `+`
/// between optional whitespace (line breaks included), then a path of
/// word characters and dots ending in `last`.
fn sums_written(text: &str, first: &str, last: &str) -> usize {
    text.match_indices(first)
        .filter(|&(at, _)| {
            let rest = text[at + first.len()..].trim_start();
            let Some(rest) = rest.strip_prefix('+') else {
                return false;
            };
            let rest = rest.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
                .unwrap_or(rest.len());
            rest[..end].ends_with(last)
        })
        .count()
}

/// Request conservation and the routing identity are stated once, in
/// `legion-serve`'s run checker (`invariants.rs`), which every run
/// passes through; a test or binary that re-types either one fails
/// here. `bench/` is outside the scan: it may only change in a
/// benchmark-only PR, and ROADMAP 3(d) lists its copies.
#[test]
fn identities_are_stated_once() {
    // Self-check on text that holds one sum, built so this file holds none.
    let (a, b) = (concat!("x.compl", "eted +"), concat!("y.sh", "ed"));
    let text = format!("{a}\n  {b}; {a} {b}_total; {b} + {a}");
    assert_eq!(sums_written(&text, "completed", "shed"), 1);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    assert!(
        files.len() > 50,
        "source scan collapsed: {} files",
        files.len()
    );
    let mut restated = Vec::new();
    for file in files
        .iter()
        .filter(|f| !f.ends_with("legion-serve/src/invariants.rs"))
    {
        let text = std::fs::read_to_string(file).expect("readable source");
        for (first, last) in [("completed", "shed"), ("routed", "spilled")] {
            if sums_written(&text, first, last) > 0 {
                restated.push(format!("{} (`{first} + … {last}`)", file.display()));
            }
        }
    }
    assert!(
        restated.is_empty(),
        "identities the run checker owns are restated: {restated:?}"
    );
}

/// How often `text` calls the free function `name(`: not a method call
/// (`.name(`), a definition (`fn name(`), a longer identifier or a doc
/// link.
fn free_calls(text: &str, name: &str) -> usize {
    text.match_indices(&format!("{name}("))
        .filter(|&(at, _)| {
            let before = &text[..at];
            let prev = before.chars().next_back();
            !prev.is_some_and(|c| c.is_ascii_alphanumeric() || "_.`".contains(c))
                && !before.ends_with("fn ")
        })
        .count()
}

/// How often `text` constructs `variant { .. }` with named fields: a
/// `variant {` whose braces hold no `..` and are not a match arm.
fn constructions(text: &str, variant: &str) -> usize {
    text.match_indices(&format!("{variant} {{"))
        .filter(|&(at, found)| {
            let rest = &text[at + found.len()..];
            let Some(close) = rest.find('}') else {
                return false;
            };
            !rest[..close].contains("..") && !rest[close + 1..].trim_start().starts_with("=>")
        })
        .count()
}

/// How often `text` assembles a vertex store by hand: a
/// `VertexStore::new(` call or an `.assign(` method call.
fn store_assemblies(text: &str) -> usize {
    text.matches("VertexStore::new(").count() + text.matches(".assign(").count()
}

/// Each set-up step is written once: pre-sampling is called only from
/// `BuildContext::presample`, the host-memory gate that builds
/// `SystemError::CpuOom` is `BuildContext::host_gate`, and a placement
/// spills into the SSD tier only through
/// `VertexStore::with_ssd_rows`. Outside `legion-sampling`, which
/// defines and unit-tests `presample`, a library source that calls the
/// free function or builds the error again fails here; outside
/// `legion-store`, so does one that calls `VertexStore::new` or
/// `assign`. `bench/` is outside the scan, as it is for
/// `identities_are_stated_once`.
#[test]
fn set_up_steps_are_written_once() {
    // Self-checks on text that holds one of each among near misses.
    let call = concat!("pre", "sample");
    let text = format!(
        "pub fn {call}(&self) {{ legion_sampling::{call}(a) }}\n\
         ctx.{call}(&g, &t); [`{call}()`]; my_{call}(x)"
    );
    assert_eq!(free_calls(&text, call), 1);
    let oom = concat!("SystemError::Cpu", "Oom");
    let text = format!(
        "return Err({oom} {{ needed, available }});\n\
         {oom} {{ needed, available }} => write!(f),\n\
         matches!(e, Err({oom} {{ .. }}))"
    );
    assert_eq!(constructions(&text, oom), 1);
    let text = "let mut s = VertexStore::new(nvme, n, b, k);\n\
                s.assign(v, Tier::Ssd); m.add_assign(&x); VertexStore::with_ssd_rows(a)";
    assert_eq!(store_assemblies(text), 2);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is a directory");
    for krate in crates.flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    assert!(
        files.len() > 50,
        "source scan collapsed: {} files",
        files.len()
    );
    let in_crate =
        |file: &std::path::Path, name: &str| file.starts_with(root.join("crates").join(name));
    let (mut calls, mut gates, mut stores) = (Vec::new(), Vec::new(), Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        if !in_crate(file, "legion-sampling") {
            for _ in 0..free_calls(&text, call) {
                calls.push(file.display().to_string());
            }
        }
        for _ in 0..constructions(&text, oom) {
            gates.push(file.display().to_string());
        }
        if !in_crate(file, "legion-store") {
            for _ in 0..store_assemblies(&text) {
                stores.push(file.display().to_string());
            }
        }
    }
    assert!(
        calls.len() == 1 && calls[0].ends_with("legion-baselines/src/lib.rs"),
        "pre-sampling is called outside `BuildContext::presample`: {calls:?}"
    );
    assert!(
        gates.len() == 1 && gates[0].ends_with("legion-baselines/src/lib.rs"),
        "the host-memory gate is written outside `BuildContext::host_gate`: {gates:?}"
    );
    assert!(
        stores.is_empty(),
        "a vertex store is assembled outside `VertexStore::with_ssd_rows`: {stores:?}"
    );
}

/// The end of the braced block that opens at or after `at` in `text`,
/// or of the `;` item when a `;` comes first. Braces are counted
/// naively: string and char literals must keep them balanced.
fn item_end(text: &str, at: usize) -> usize {
    let rest = &text[at..];
    let open = rest.find('{').unwrap_or(rest.len());
    if let Some(semi) = rest[..open].find(';') {
        return at + semi + 1;
    }
    let mut depth = 0;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return at + open + i + 1,
            '}' => depth -= 1,
            _ => {}
        }
    }
    text.len()
}

/// Where `text`'s `#[cfg(test)]` items lie.
fn test_items(text: &str) -> Vec<std::ops::Range<usize>> {
    let (mut items, mut from) = (Vec::new(), 0);
    while let Some(at) = text[from..].find("#[cfg(test)]") {
        let end = item_end(text, from + at);
        items.push(from + at..end);
        from = end;
    }
    items
}

/// `text` with every `#[cfg(test)]` item cut out.
fn non_test(text: &str) -> String {
    let (mut out, mut from) = (String::new(), 0);
    for item in test_items(text) {
        out.push_str(&text[from..item.start]);
        from = item.end;
    }
    out + &text[from..]
}

/// The `.rs` files under every `crates/*/src`.
fn library_sources() -> Vec<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is a directory");
    for krate in crates.flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    assert!(
        files.len() > 50,
        "source scan collapsed: {} files",
        files.len()
    );
    files
}

/// Where `name` starts in `text` as a whole path segment: not right
/// after an identifier character.
fn segment_starts(text: &str, name: &str) -> usize {
    text.match_indices(name)
        .filter(|&(at, _)| {
            let before = text[..at].chars().next_back();
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
        .count()
}

/// The tiers below HBM own their rules. Outside `#[cfg(test)]` code, a
/// library source names `Tier::` only in `legion-store`, which keeps
/// which rows sit on the SSD and how a re-plan moves them, and calls
/// `.read_seconds_at(` or `.coalesced_read_seconds_at(` only in
/// `legion-hw`'s `net.rs`, whose `NetModel::wave` prices every remote
/// wave. `bench/` is outside the scan.
#[test]
fn tiers_below_hbm_are_priced_and_migrated_once() {
    let tier = concat!("Tier", "::");
    assert_eq!(
        segment_starts("LowerTier::charge; Tier::Ssd, (Tier::Dram)", tier),
        2
    );
    let waves = [
        concat!(".read_seconds", "_at("),
        concat!(".coalesced_read_seconds", "_at("),
    ];
    let mut outside = Vec::new();
    for file in &library_sources() {
        let text = non_test(&std::fs::read_to_string(file).expect("readable source"));
        if !file.to_string_lossy().contains("legion-store") && segment_starts(&text, tier) > 0 {
            outside.push(format!("{} ({tier})", file.display()));
        }
        if !file.ends_with("legion-hw/src/net.rs") {
            for name in waves.iter().filter(|&&name| text.contains(name)) {
                outside.push(format!("{} ({name}…)", file.display()));
            }
        }
    }
    assert!(
        outside.is_empty(),
        "a rule below HBM is written outside its tier: {outside:?}"
    );
}

/// Rows enter a GPU cache through one walk. Outside `legion-cache`'s
/// `unified.rs`, which defines them, and outside `#[cfg(test)]` code, a
/// library source calls `insert_feature(` or `insert_topology(` only in
/// the body of `legion_cache::fill::place_prefix`. `bench/` is outside
/// the scan, as it is for `set_up_steps_are_written_once`.
#[test]
fn cache_rows_are_placed_by_one_walk() {
    // Self-checks on text built so this file calls neither insert.
    let insert = concat!("insert_", "feature(");
    let text = format!(
        "fn a() {{ c.{insert}0, 1); }}\n#[cfg(test)]\nuse x::y;\n\
         #[cfg(test)]\nmod tests {{ fn t() {{ c.{insert}0, 2); }} }}\nfn b() {{}}"
    );
    assert_eq!(
        non_test(&text),
        format!("fn a() {{ c.{insert}0, 1); }}\n\n\nfn b() {{}}")
    );
    assert_eq!(item_end("fn f() { { } }; g", 0), 14);

    let walk = concat!("pub fn place", "_prefix(");
    let (mut inside, mut outside) = (0, Vec::new());
    for file in &library_sources() {
        if file.ends_with("legion-cache/src/unified.rs") {
            continue;
        }
        let text = non_test(&std::fs::read_to_string(file).expect("readable source"));
        let body = match text.find(walk) {
            Some(at) if file.ends_with("legion-cache/src/fill.rs") => at..item_end(&text, at),
            _ => 0..0,
        };
        for name in [insert, concat!("insert_", "topology(")] {
            for (at, _) in text.match_indices(name) {
                if body.contains(&at) {
                    inside += 1;
                } else {
                    outside.push(format!("{} ({name}…)", file.display()));
                }
            }
        }
    }
    assert!(
        outside.is_empty(),
        "rows are inserted outside `place_prefix`: {outside:?}"
    );
    assert_eq!(inside, 2, "the walk inserts one row of either kind");
}

/// `text` with every `//` and `/* */` comment and the inside of every
/// string and character literal cut out, line breaks kept, so neither
/// names anything. `r"…"` and `r#"…"#` are literals too; a `'` that opens
/// no character literal is a lifetime and stays.
fn code_only(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut at = 0;
    while let Some(c) = text[at..].chars().next() {
        let rest = &text[at..];
        let skipped = if rest.starts_with("//") {
            Some(rest.find('\n').unwrap_or(rest.len()))
        } else if rest.starts_with("/*") {
            Some(rest.find("*/").map_or(rest.len(), |e| e + 2))
        } else {
            literal_len(rest)
        };
        match skipped {
            Some(len) => {
                out.extend(rest[..len].matches('\n'));
                at += len;
            }
            None => {
                out.push(c);
                at += c.len_utf8();
            }
        }
    }
    out
}

/// The length of the string or character literal `text` opens, if it
/// opens one: `"…"` with `\` escapes, raw `r#*"…"#*`, or a `'x'` / `'\…'`
/// character.
fn literal_len(text: &str) -> Option<usize> {
    let hashes = text
        .strip_prefix('r')
        .map(|r| r.len() - r.trim_start_matches('#').len());
    if let Some(h) = hashes.filter(|&h| text[1 + h..].starts_with('"')) {
        let close = format!("\"{}", "#".repeat(h));
        let body = 2 + h;
        return Some(
            text[body..]
                .find(&close)
                .map_or(text.len(), |e| body + e + close.len()),
        );
    }
    let mut chars = text.char_indices();
    match chars.next()?.1 {
        '"' => {
            let mut escaped = false;
            for (i, c) in chars {
                match c {
                    '"' if !escaped => return Some(i + 1),
                    '\\' => escaped = !escaped,
                    _ => escaped = false,
                }
            }
            Some(text.len())
        }
        '\'' => match chars.next()? {
            (_, '\\') => text.get(3..)?.find('\'').map(|e| e + 4),
            (i, c) => text[i + c.len_utf8()..]
                .starts_with('\'')
                .then(|| i + c.len_utf8() + 1),
        },
        _ => None,
    }
}

/// Adds to `named` every identifier `text` reaches a function by: a
/// call (`name(`), a path (`::name`) or a method (`.name`). A bare
/// mention — a field, a local, a parameter — reaches nothing, and
/// neither does a definition (`fn name(`).
fn names(text: &str, named: &mut std::collections::HashSet<String>) {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut previous = "";
    let mut rest = text;
    while let Some(start) = rest.find(is_ident) {
        let gap = rest[..start].trim_end();
        let end = rest[start..]
            .find(|c| !is_ident(c))
            .map_or(rest.len(), |e| start + e);
        let word = &rest[start..end];
        let defined = previous == "fn" && gap.is_empty();
        let qualified = gap.ends_with("::") || gap.ends_with('.');
        if !defined && (qualified || rest[end..].trim_start().starts_with('(')) {
            named.insert(word.to_string());
        }
        previous = word;
        rest = &rest[end..];
    }
}

/// The `pub fn`s of `sources` (`(path, text)`, paths relative to the
/// workspace root) that nothing reaches, as `path:line name`. A
/// `crates/*/src` file defines the `pub fn`s outside its `#[cfg(test)]`
/// items, unless it is a binary under `src/bin/`; its non-test code
/// reaches. Every other source (`examples/`, root `tests/`, `bench/src`,
/// a crate's `tests/`) reaches with all of its text. Comments reach
/// nothing.
fn unreached(sources: &[(String, String)]) -> Vec<String> {
    let library = |path: &str| path.starts_with("crates/") && path.contains("/src/");
    let code: Vec<(&str, String)> = sources
        .iter()
        .map(|(path, text)| (path.as_str(), code_only(text)))
        .collect();
    let mut named = std::collections::HashSet::new();
    for (path, text) in &code {
        if library(path) {
            names(&non_test(text), &mut named);
        } else {
            names(text, &mut named);
        }
    }
    let mut out = Vec::new();
    for (path, text) in code
        .iter()
        .filter(|(p, _)| library(p) && !p.contains("/src/bin/"))
    {
        let tests = test_items(text);
        for (at, _) in text.match_indices("pub fn ") {
            let start = at + "pub fn ".len();
            let name: String = text[start..]
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                .collect();
            if tests.iter().any(|t| t.contains(&at)) || named.contains(&name) {
                continue;
            }
            let line = text[..at].matches('\n').count() + 1;
            out.push(format!("{path}:{line} {name}"));
        }
    }
    out
}

/// Every public function is reached: each `pub fn` of the library crates
/// is named, other than at its definition and outside comments, by
/// non-test library code, a binary, `examples/`, root `tests/`,
/// `bench/src` or a crate's `tests/`. A function only its own unit tests
/// call goes, with those tests.
#[test]
fn public_functions_are_reached() {
    // Self-checks on literal sources, named so no library function shares
    // them. A string or character literal, a field, a local and a
    // parameter reach nothing.
    let source = |path: &str, text: &str| (path.to_string(), text.to_string());
    let lib = concat!(
        "/// `tested_only_q` is dead.\npub fn tested_only_q() {}\n",
        "pub fn called_q() {}\npub fn benched_q() {}\npub fn proptested_q() {}\n",
        "pub fn quoted_q() {}\npub fn raw_q() {}\npub fn field_q() {}\n",
        "pub fn local_q() {}\npub fn param_q() {}\npub fn method_q() {}\n",
        "pub fn after_char_q() {}\n",
        "#[cfg(test)]\npub fn helper_q() {}\n",
        "#[cfg(test)]\nmod tests {\n    fn t() { tested_only_q(); helper_q(); }\n}\n"
    );
    let other = concat!(
        "fn f<'a>(param_q: &'a S) { crate::called_q(); } // proptested_q\n",
        "struct S { field_q: u8 }\n",
        "fn g() { let local_q = S { field_q: 1 }; panic!(\"quoted_q() {}\", r#\"raw_q(\"#); }\n",
        "fn h(c: char) { let _ = ('\"', c.method_q()); after_char_q(); }\n",
    );
    assert_eq!(
        unreached(&[
            source("crates/a/src/lib.rs", lib),
            source("crates/a/src/other.rs", other),
            source("crates/a/src/bin/x.rs", "pub fn in_binary_q() {}"),
            source("bench/src/probe.rs", "fn p() { a::benched_q() }"),
            source("crates/a/tests/proptests.rs", "use a::proptested_q;"),
        ]),
        [2, 6, 7, 8, 9, 10].map(|line| {
            let name = lib.lines().nth(line - 1).expect("line")["pub fn ".len()..]
                .trim_end_matches("() {}");
            format!("crates/a/src/lib.rs:{line} {name}")
        })
    );
    assert_eq!(code_only("a /* b\n */ c // d\ne"), "a \n c \ne");
    assert_eq!(
        code_only("f(\"x // \\\" y\", 'z', '\\'', r#\"w\"#) /* \"q */ &'a"),
        "f(, , , )  &'a"
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = library_sources();
    for dir in ["examples", "tests", "bench/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    for krate in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is a directory")
        .flatten()
    {
        rust_files(&krate.path().join("tests"), &mut files);
    }
    let root = root.canonicalize().expect("workspace root");
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|file| {
            let path = file.canonicalize().expect("source path");
            let rel = path.strip_prefix(&root).expect("source under the root");
            let text = std::fs::read_to_string(file).expect("readable source");
            (rel.display().to_string(), text)
        })
        .collect();
    let dead = unreached(&sources);
    assert!(
        dead.is_empty(),
        "public functions nothing but their own tests reach: {dead:#?}"
    );
}

/// Whether a name that `before` (comments and literals cut out) leads up
/// to sits in a `use` item: walking back over the words, `::`, braces
/// and commas a use tree is made of reaches the `use` keyword.
fn in_use_item(before: &str) -> bool {
    let mut rest = before;
    loop {
        let tree = rest.trim_end_matches(|c: char| "{},:* \t\r\n".contains(c));
        let head = tree.trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
        match &tree[head.len()..] {
            "use" => return true,
            "" => return false,
            _ => rest = head,
        }
    }
}

/// Copies the workspace at `from` into `to`, `bench/` included and
/// build output left out, passing each file's text through `edit`. A
/// file is written only when its bytes change and one `from` no longer
/// holds is deleted, so the copy's target dirs stay warm across runs.
fn mirror(
    from: &std::path::Path,
    to: &std::path::Path,
    edit: &mut dyn FnMut(&str, String) -> String,
) {
    fn walk(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            let rel = path.strip_prefix(root).expect("under the root");
            let skipped = [".git", "target", ".bench_build", "bench/out"];
            if skipped.iter().any(|s| rel.ends_with(s)) {
                continue;
            }
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                out.push(rel.to_path_buf());
            }
        }
    }
    let (mut files, mut stale) = (Vec::new(), Vec::new());
    walk(from, from, &mut files);
    walk(to, to, &mut stale);
    for rel in &files {
        let bytes = std::fs::read(from.join(rel)).expect("readable file");
        let bytes = match String::from_utf8(bytes) {
            Ok(text) => edit(&rel.to_string_lossy(), text).into_bytes(),
            Err(binary) => binary.into_bytes(),
        };
        let dest = to.join(rel);
        if std::fs::read(&dest).ok().as_ref() != Some(&bytes) {
            std::fs::create_dir_all(dest.parent().expect("a parent")).expect("copy dir");
            std::fs::write(&dest, bytes).expect("copy written");
        }
    }
    for rel in stale.iter().filter(|rel| !files.contains(rel)) {
        std::fs::remove_file(to.join(rel)).expect("stale copy removed");
    }
}

/// The `(file, line, column, n)` of every use of a function marked
/// `#[deprecated(note = "reach n")]` that `cargo check --all-targets`
/// reports on the workspace whose manifest is `manifest`, the file
/// resolved against the manifest's directory.
fn deprecation_sites(
    manifest: &std::path::Path,
    target: &std::path::Path,
) -> Vec<(std::path::PathBuf, usize, usize, usize)> {
    let out = std::process::Command::new(env!("CARGO"))
        .args([
            "check",
            "--offline",
            "--locked",
            "--workspace",
            "--all-targets",
        ])
        .args(["--message-format=short", "--manifest-path"])
        .arg(manifest)
        .arg("--target-dir")
        .arg(target)
        // `-D warnings` would stop at the first use of a deprecated fn.
        .env_remove("RUSTFLAGS")
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "cargo check failed:\n{stderr}");
    let dir = manifest.parent().expect("manifest dir");
    stderr
        .lines()
        .filter_map(|line| {
            let (site, message) = line.split_once(": warning: use of deprecated ")?;
            let n = message.rsplit_once("`: reach ")?.1.parse().ok()?;
            let mut parts = site.rsplitn(3, ':');
            let column = parts.next()?.parse().ok()?;
            let row = parts.next()?.parse().ok()?;
            Some((dir.join(parts.next()?), row, column, n))
        })
        .collect()
}

/// The compiler decides what the textual guard approximates: in a copy
/// of the workspace under `target/`, every `pub fn` under
/// `crates/*/src` outside binaries and `#[cfg(test)]` items is marked
/// `#[deprecated]`, and `cargo check --all-targets` runs on the
/// workspace and on `bench/`. A function is reached when rustc warns of
/// a use outside a `#[cfg(test)]` item and outside a `use` item: an
/// import or re-export calls nothing. Unlike the textual guard's bare
/// names, a field, a std method or another type's method of the same
/// name reaches nothing. Cold, the two checks take about 20 s;
/// `scripts/verify.sh` runs this.
#[test]
#[ignore = "builds an annotated copy of the workspace; run by scripts/verify.sh"]
fn public_functions_are_reached_by_the_compiler() {
    assert!(in_use_item("use a::{b, c::{"));
    assert!(in_use_item("pub use self::inner::"));
    for before in [
        "x.",
        "let v = a::",
        "fn f() {\n    ",
        "S { f: ",
        "}\n// use\n",
    ] {
        assert!(!in_use_item(&code_only(before)), "{before:?}");
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scratch = root.join("target/reach-check");
    let copy = scratch.join("workspace");
    let mut defined = Vec::new();
    mirror(&root, &copy, &mut |rel, text| {
        let library = rel.starts_with("crates/") && rel.contains("/src/");
        if !library || rel.contains("/src/bin/") || !rel.ends_with(".rs") {
            return text;
        }
        let tests = test_items(&text);
        let (mut out, mut at) = (String::with_capacity(text.len()), 0);
        for (row, line) in text.split_inclusive('\n').enumerate() {
            let code = line.trim_start();
            let indent = &line[..line.len() - code.len()];
            let name: String = code
                .strip_prefix("pub fn ")
                .unwrap_or("")
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                .collect();
            if !name.is_empty() && !tests.iter().any(|t| t.contains(&at)) {
                let note = format!("#[deprecated(note = \"reach {}\")]", defined.len());
                out.push_str(&format!("{indent}{note} {code}"));
                defined.push((rel.to_string(), row + 1, name));
            } else {
                out.push_str(line);
            }
            at += line.len();
        }
        out
    });
    let mut sites = deprecation_sites(&copy.join("Cargo.toml"), &scratch.join("target"));
    sites.extend(deprecation_sites(
        &copy.join("bench/Cargo.toml"),
        &scratch.join("bench-target"),
    ));

    let mut texts = std::collections::HashMap::new();
    let mut reached = std::collections::HashSet::new();
    for (file, row, column, n) in sites {
        let text = texts
            .entry(file.clone())
            .or_insert_with(|| std::fs::read_to_string(&file).expect("warned file"));
        let line_start: usize = text.split_inclusive('\n').take(row - 1).map(str::len).sum();
        let at = line_start
            + text[line_start..]
                .chars()
                .take(column - 1)
                .map(char::len_utf8)
                .sum::<usize>();
        let in_test = test_items(text).iter().any(|t| t.contains(&at));
        if !in_test && !in_use_item(&code_only(&text[..at])) {
            reached.insert(n);
        }
    }
    assert!(
        defined.len() > 400,
        "pub fn scan collapsed: {}",
        defined.len()
    );
    // Clippy's `len_without_is_empty` asks for an `is_empty` beside every
    // `pub fn len`, so one defined right after a reached `len` stays.
    let paired = |i: usize| {
        let ((file, _, name), (len_file, _, len)) = (&defined[i], &defined[i - 1]);
        name == "is_empty" && len == "len" && file == len_file && reached.contains(&(i - 1))
    };
    let dead: Vec<String> = (0..defined.len())
        .filter(|&i| !(reached.contains(&i) || i > 0 && paired(i)))
        .map(|i| format!("{}:{} {}", defined[i].0, defined[i].1, defined[i].2))
        .collect();
    assert!(
        dead.is_empty(),
        "public functions nothing but their own tests reach: {dead:#?}"
    );
}

/// A serving and a fleet config built from the library defaults, split
/// so this file holds neither.
const FIXTURE_DEFAULTS: [&str; 2] = [
    concat!("ServeConfig::", "default()"),
    concat!("FleetConfig::", "default()"),
];

/// How often `text` builds a serving or fleet config from the defaults.
fn fixtures_written(text: &str) -> usize {
    FIXTURE_DEFAULTS
        .iter()
        .map(|literal| text.matches(literal).count())
        .sum()
}

/// The golden-scale serving fixture is written once, in
/// `legion_fleet::scenarios`; a root test that spells a serving or fleet
/// config out from the defaults again fails here.
#[test]
fn serving_fixture_is_written_once() {
    // Self-check on text that holds one of each and a near miss.
    let [serve, fleet] = FIXTURE_DEFAULTS;
    let text = format!("..{serve} }};\n{fleet}; ClassConfig::default()");
    assert_eq!(fixtures_written(&text), 2);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_files(&root.join("tests"), &mut files);
    assert!(
        files.len() > 5,
        "test scan collapsed: {} files",
        files.len()
    );
    let retyped: Vec<String> = files
        .iter()
        .filter(|file| fixtures_written(&std::fs::read_to_string(file).expect("readable")) > 0)
        .map(|file| file.display().to_string())
        .collect();
    assert!(
        retyped.is_empty(),
        "root tests build a serving fixture from the defaults instead of \
         `legion_fleet::scenarios`: {retyped:?}"
    );
}

/// The names of thread-safety machinery, split so this file holds none.
const THREAD_MACHINERY: [&str; 4] = [
    concat!("std::", "sync"),
    concat!("std::", "thread"),
    concat!("parking", "_lot"),
    concat!("cross", "beam"),
];

/// The thread-safety names `text` mentions.
fn thread_machinery_named(text: &str) -> Vec<&'static str> {
    THREAD_MACHINERY
        .into_iter()
        .filter(|name| text.contains(name))
        .collect()
}

/// The simulator is one thread and one event loop, so library and
/// binary sources hold plain cells, not locks, atomics or `Arc`s; a
/// source file under `crates/*/src` that names the machinery fails here.
#[test]
fn single_threaded_by_construction() {
    // Self-check on text that names two of the four.
    let [sync, _, lot, _] = THREAD_MACHINERY;
    let text = format!("use {sync}::Arc;\nuse {lot}::Mutex; std::cell::Cell");
    assert_eq!(thread_machinery_named(&text), [sync, lot]);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is a directory");
    for krate in crates.flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    assert!(
        files.len() > 50,
        "source scan collapsed: {} files",
        files.len()
    );
    let threaded: Vec<String> = files
        .iter()
        .filter_map(|file| {
            let named = thread_machinery_named(&std::fs::read_to_string(file).expect("readable"));
            (!named.is_empty()).then(|| format!("{} ({})", file.display(), named.join(", ")))
        })
        .collect();
    assert!(
        threaded.is_empty(),
        "sources name thread-safety machinery: {threaded:?}"
    );
}

/// The `[dependencies]` names of a `Cargo.toml`, sorted.
fn manifest_dependencies(manifest: &str) -> Vec<String> {
    let section = manifest
        .split_once("[dependencies]")
        .map_or("", |(_, rest)| rest.split("\n[").next().unwrap_or(""));
    let mut names: Vec<String> = section
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| line.split(['.', '=', ' ']).next())
        .map(str::to_string)
        .collect();
    names.sort();
    names
}

/// Each `[[package]]` of a `Cargo.lock` as its name and its sorted
/// dependency names (a version suffix dropped).
fn lock_packages(lock: &str) -> Vec<(String, Vec<String>)> {
    let package = |block: &str| {
        let name = block
            .lines()
            .find_map(|line| line.strip_prefix("name = "))?;
        let list = block
            .split_once("dependencies = [")
            .map_or("", |(_, rest)| rest.split(']').next().unwrap_or(""));
        let mut deps: Vec<String> = list
            .split(',')
            .map(|dep| dep.trim().trim_matches('"'))
            .filter_map(|dep| dep.split(' ').next().filter(|name| !name.is_empty()))
            .map(str::to_string)
            .collect();
        deps.sort();
        Some((name.trim_matches('"').to_string(), deps))
    };
    lock.split("[[package]]")
        .skip(1)
        .filter_map(package)
        .collect()
}

/// `bench/` is a workspace of its own whose committed lock lists every
/// first-party crate it builds with that crate's dependencies. A
/// `crates/*/Cargo.toml` edge the lock does not list would rewrite
/// `bench/Cargo.lock`, which only a benchmark-only change may do; it
/// fails here rather than first in `scripts/verify.sh`'s `--locked`
/// build.
#[test]
fn manifest_edges_match_bench_lock() {
    // Self-check on a manifest and a lock that name the same two edges.
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nb.workspace = true\n\
                    a = { workspace = true }\n\n[dev-dependencies]\nc.workspace = true\n";
    assert_eq!(manifest_dependencies(manifest), ["a", "b"]);
    let lock = "version = 3\n\n[[package]]\nname = \"x\"\nversion = \"0.1.0\"\n\
                dependencies = [\n \"b\",\n \"a 0.2.0\",\n]\n\n[[package]]\nname = \"y\"\n";
    let expected = [("x", vec!["a", "b"]), ("y", vec![])].map(|(name, deps)| {
        (
            name.to_string(),
            deps.into_iter().map(String::from).collect(),
        )
    });
    assert_eq!(lock_packages(lock), expected);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lock = std::fs::read_to_string(root.join("bench/Cargo.lock")).expect("bench/ has a lock");
    let mut compared = 0;
    for (name, locked) in lock_packages(&lock) {
        let manifest = root.join("crates").join(&name).join("Cargo.toml");
        let Ok(manifest) = std::fs::read_to_string(manifest) else {
            continue;
        };
        compared += 1;
        assert_eq!(
            manifest_dependencies(&manifest),
            locked,
            "crates/{name}/Cargo.toml's [dependencies] differ from bench/Cargo.lock's list; \
             the edge would rewrite a file under bench/"
        );
    }
    assert!(
        compared >= 15,
        "lock parse collapsed: only {compared} crates compared"
    );
}

/// Whether `path` (segments joined by `::`) is a module file under the
/// crate sources `src`, or a `pub` item declared in the module its
/// leading segments name (the whole crate when there are none).
fn is_module_or_pub_item(src: &std::path::Path, path: &str) -> bool {
    let rel = path.replace("::", "/");
    if src.join(format!("{rel}.rs")).is_file() || src.join(&rel).join("mod.rs").is_file() {
        return true;
    }
    let (scope, name) = match rel.rsplit_once('/') {
        Some((scope, name)) => (src.join(scope), name),
        None => (src.to_path_buf(), rel.as_str()),
    };
    let mut files = vec![scope.with_extension("rs")];
    rust_files(&scope, &mut files);
    let declares = |line: &str| {
        let mut words = line
            .trim_start()
            .strip_prefix("pub ")
            .unwrap_or("")
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        matches!(
            words.next(),
            Some("fn" | "struct" | "enum" | "trait" | "const" | "type" | "static" | "mod")
        ) && words.next() == Some(name)
    };
    files
        .iter()
        .filter_map(|file| std::fs::read_to_string(file).ok())
        .any(|text| text.lines().any(declares))
}

/// A doc cannot name a module or item the crate no longer has.
#[test]
fn documented_crate_items_exist() {
    assert_eq!(
        crate_item_paths("`legion-hw::PcieModel` in `legion-hw`, `legion-cache::{a,b::c}`"),
        [
            ("legion-hw", "PcieModel"),
            ("legion-cache", "a"),
            ("legion-cache", "b::c")
        ]
        .map(|(krate, path)| (krate, path.to_string()))
    );
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let hw = crates.join("legion-hw/src");
    assert!(is_module_or_pub_item(&hw, "pcie"));
    assert!(is_module_or_pub_item(&hw, "pcie::PcieModel"));
    assert!(!is_module_or_pub_item(&hw, "pcie::NetModel"));
    let docs = [
        ("README.md", include_str!("../README.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
    ];
    let mut named = 0;
    for (doc_name, doc) in docs {
        for (krate, path) in crate_item_paths(doc) {
            named += 1;
            assert!(
                is_module_or_pub_item(&crates.join(krate).join("src"), &path),
                "{doc_name} names `{krate}::{path}`, which is neither a module file nor a pub item of {krate}"
            );
        }
    }
    assert!(
        named >= 10,
        "crate-path parse collapsed: only {named} found"
    );
}

/// The top-level docs, the committed golden values, and the byte budget
/// each must fit: its size when the budget was last set. A change that
/// needs more room raises the budget in the same diff, so neither grows
/// by default.
const DOC_BUDGETS: [(&str, u64); 7] = [
    ("README.md", 28031),
    ("DESIGN.md", 93824),
    ("OPERATIONS.md", 29651),
    ("EXPERIMENTS.md", 45509),
    ("CHANGES.md", 58924),
    ("ROADMAP.md", 31152),
    ("tests/golden.txt", 95392),
];

/// Every top-level doc fits its byte budget.
#[test]
fn docs_stay_within_their_byte_budgets() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let over: Vec<String> = DOC_BUDGETS
        .iter()
        .filter_map(|&(doc, budget)| {
            let size = std::fs::metadata(root.join(doc))
                .unwrap_or_else(|e| panic!("{doc}: {e}"))
                .len();
            (size > budget).then(|| format!("{doc} is {size} bytes, over its budget of {budget}"))
        })
        .collect();
    assert!(over.is_empty(), "docs over their byte budget: {over:?}");
}
