//! Byte pins for the persisted JSON codecs.
//!
//! A `SimConfig`'s JSON is part of every store key, and a
//! `SchemeOutcome`'s JSON is the payload `figs`, `runner`, `serve` and
//! `obs` share through the store. Each pin below is the FNV-1a-64 of the
//! exact bytes the codec emits today (or the store key itself), so a codec
//! refactor that moves one byte fails here rather than silently orphaning
//! every stored entry. A deliberate format change must bump
//! `lvp_store::KEY_SCHEMA_VERSION` and re-pin.

use lvp_bench::{run_scheme, sim_request_doc, SchemeKind, SchemeOutcome};
use lvp_json::{Json, ToJson};
use lvp_store::{fnv1a_64, request_key, KEY_SCHEMA_VERSION};
use lvp_uarch::{SampleSpec, SimConfig};

/// `fnv1a_64(SimConfig::preset(name).to_json().canonical())`.
const PRESET_PINS: [(&str, u64); 27] = [
    ("default", 0xed23_4f96_90f3_12ee),
    ("oracle_replay", 0xa1e2_41c6_c1c9_a4b8),
    ("gshare", 0x3baf_7ce3_843a_7007),
    ("no_prefetch", 0x6403_aa52_d587_c2bf),
    ("narrow_frontend", 0xe347_5977_70d3_98d4),
    ("small_pvt", 0x88be_2ee7_98e1_7f25),
    ("policy1", 0x7ecb_bca5_7789_48c0),
    ("no_lscd", 0x2885_7a9d_da15_5a2f),
    ("no_way_prediction", 0xd7c5_2c09_64d3_b3ed),
    ("no_dlvp_prefetch", 0x0fb8_7ce5_b625_e067),
    ("paq_n2", 0x67d7_3764_82da_ad80),
    ("paq_n8", 0x2c59_e976_f6f7_71b2),
    ("hist4", 0x325b_c6e0_f314_4fd5),
    ("hist8", 0xe9b1_1b66_cc10_24f9),
    ("hist32", 0x6124_2fe6_7ac0_7470),
    ("fpc_1", 0x5cab_44c3_3393_88a4),
    ("fpc_12", 0x622f_3ec7_6e5e_c02a),
    ("fpc_148", 0xe0e9_7984_5e2d_4d00),
    ("fpc_1_replay", 0x8ef1_b08c_4b54_79aa),
    ("fpc_12_replay", 0x896d_b688_1089_4224),
    ("fpc_148_replay", 0x32a5_2735_b550_05b6),
    ("vtage_vanilla_loads", 0x8820_f417_73a5_f37a),
    ("vtage_vanilla_all", 0xcb9c_c97d_7158_dc81),
    ("vtage_dynamic_loads", 0xdb40_5c3b_fef8_8810),
    ("vtage_dynamic_all", 0xaf31_3f66_4020_9473),
    ("vtage_static_loads", 0x8553_0333_35ff_6e69),
    ("vtage_static_all", 0x8118_0043_8df0_8cca),
];

/// `fnv1a_64(run_scheme(aifirf@8000, scheme, default).to_json().compact())`.
const OUTCOME_PINS: [(&str, u64); 5] = [
    ("baseline", 0x4b71_4c4f_5a6d_435e),
    ("CAP", 0xc3dc_03a7_f04d_9df0),
    ("VTAGE", 0x85db_0f74_0247_53af),
    ("DLVP", 0x60a4_22a0_52e3_c34b),
    ("DLVP+VTAGE", 0x6dc0_19b5_2996_626b),
];

/// Store keys of two fixed `sim` request documents (unsampled, sampled).
const KEY_PINS: [&str; 2] = [
    "5a5105a824904b9cc0816acc52de7f8a",
    "889c919a8cb400b602eb746d2a9923ab",
];

fn bump_hint() -> String {
    format!(
        "persisted JSON bytes changed; store keys and payloads written under \
         KEY_SCHEMA_VERSION {KEY_SCHEMA_VERSION} no longer match. If the format change \
         is deliberate, bump lvp_store::KEY_SCHEMA_VERSION and re-pin this file"
    )
}

fn sampled() -> SimConfig {
    SimConfig {
        sample: Some(SampleSpec {
            ff: 1_000,
            warmup: 200,
            detail: 300,
            period: 1_000,
        }),
        ..SimConfig::paper_default()
    }
}

#[test]
fn key_schema_version_is_pinned() {
    assert_eq!(KEY_SCHEMA_VERSION, 2, "{}", bump_hint());
}

#[test]
fn every_preset_config_hashes_to_its_pin() {
    let actual: Vec<(&str, u64)> = SimConfig::preset_names()
        .iter()
        .map(|&name| {
            let cfg = SimConfig::preset(name).expect("preset builds");
            (name, fnv1a_64(cfg.to_json().canonical().as_bytes()))
        })
        .collect();
    assert_eq!(actual, PRESET_PINS, "{}", bump_hint());
}

#[test]
fn fixed_request_documents_keep_their_store_keys() {
    let docs = [
        sim_request_doc(
            0x0123_4567_89ab_cdef,
            8_000,
            "dlvp",
            &SimConfig::paper_default(),
        ),
        sim_request_doc(0x0123_4567_89ab_cdef, 8_000, "dlvp", &sampled()),
    ];
    let actual: Vec<String> = docs.iter().map(request_key).collect();
    assert_eq!(actual, KEY_PINS, "{}", bump_hint());
}

#[test]
fn scheme_outcome_payloads_keep_their_bytes() {
    let trace = lvp_workloads::by_name("aifirf")
        .expect("aifirf exists")
        .trace(8_000);
    let cfg = SimConfig::paper_default();
    let mut actual = Vec::new();
    for scheme in SchemeKind::all() {
        let text = run_scheme(&trace, scheme, &cfg).to_json().compact();
        // The decoder must reproduce the stored bytes exactly.
        let back = SchemeOutcome::from_json(&Json::parse(&text).expect("valid JSON"))
            .expect("payload decodes");
        assert_eq!(back.to_json().compact(), text, "{}", scheme.name());
        actual.push((scheme.name(), fnv1a_64(text.as_bytes())));
    }
    assert_eq!(actual, OUTCOME_PINS, "{}", bump_hint());
}
