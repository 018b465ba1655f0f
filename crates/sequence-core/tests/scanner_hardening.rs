//! Hardening tests: realistic-but-awkward log lines the scanner must
//! tokenise sensibly (no panics, sane types, faithful reconstruction).

use sequence_core::{Scanner, TokenType};

fn scan_types(msg: &str) -> Vec<(String, TokenType)> {
    Scanner::new()
        .scan(msg)
        .tokens
        .into_iter()
        .map(|t| (t.text.to_string(), t.ty))
        .collect()
}

fn type_of(msg: &str, text: &str) -> TokenType {
    scan_types(msg)
        .into_iter()
        .find(|(t, _)| t == text)
        .unwrap_or_else(|| panic!("token {text:?} not found in {msg:?}"))
        .1
}

#[test]
fn ip_with_port_splits_cleanly() {
    let toks = scan_types("connect to 10.0.0.1:8080 failed");
    assert!(toks.contains(&("10.0.0.1".into(), TokenType::Ipv4)));
    assert!(toks.contains(&("8080".into(), TokenType::Integer)));
}

#[test]
fn cidr_prefix() {
    // 10.0.0.0/8: the word contains a slash, so it is one literal (or a
    // path when the path FSM is on) — never a bogus IPv4.
    let toks = scan_types("route add 10.0.0.0/8 dev eth0");
    assert!(toks
        .iter()
        .any(|(t, ty)| t == "10.0.0.0/8" && *ty == TokenType::Literal));
}

#[test]
fn version_strings_stay_literal() {
    assert_eq!(
        type_of("openssl 1.1.1k loaded", "1.1.1k"),
        TokenType::Literal
    );
    assert_eq!(
        type_of("kernel 5.15.0-56-generic booted", "5.15.0-56-generic"),
        TokenType::Literal
    );
}

#[test]
fn quoted_strings_break_into_tokens() {
    let toks = scan_types(r#"user "alice smith" logged in"#);
    assert!(toks.contains(&("\"".into(), TokenType::Literal)));
    assert!(toks.contains(&("alice".into(), TokenType::Literal)));
}

#[test]
fn kv_with_quoted_value() {
    let toks = scan_types(r#"msg="connection reset" code=104"#);
    // msg, =, ", connection, reset, ", code, =, 104
    assert_eq!(toks.len(), 9);
    assert_eq!(toks[8], ("104".to_string(), TokenType::Integer));
}

#[test]
fn uuid_is_not_an_integer() {
    let t = type_of(
        "req 550e8400-e29b-41d4-a716-446655440000 done",
        "550e8400-e29b-41d4-a716-446655440000",
    );
    assert_ne!(t, TokenType::Integer);
}

#[test]
fn scientific_notation_float() {
    assert_eq!(type_of("value 1.5e10 recorded", "1.5e10"), TokenType::Float);
    assert_eq!(type_of("value 2.0E-3 recorded", "2.0E-3"), TokenType::Float);
}

#[test]
fn hex_string_inside_brackets() {
    let toks = scan_types("[req-8f6a2b1c9d3e4f50]");
    assert!(toks
        .iter()
        .any(|(_, ty)| *ty == TokenType::Hex || *ty == TokenType::Literal));
    // Reconstruction is exact either way.
    let msg = Scanner::new().scan("[req-8f6a2b1c9d3e4f50]");
    assert_eq!(msg.reconstruct(), "[req-8f6a2b1c9d3e4f50]");
}

#[test]
fn ipv6_with_port_bracket_syntax() {
    let toks = scan_types("listen on [::1]:8080 now");
    assert!(toks.contains(&("::1".into(), TokenType::Ipv6)));
    assert!(toks.contains(&("8080".into(), TokenType::Integer)));
}

#[test]
fn url_with_credentials_and_fragment() {
    let t = type_of(
        "fetch https://u:p@example.com/a/b?x=1&y=2#frag done",
        "https://u:p@example.com/a/b?x=1&y=2#frag",
    );
    assert_eq!(t, TokenType::Url);
}

#[test]
fn negative_float_in_kv() {
    let toks = scan_types("temp=-12.5 status=ok");
    assert!(toks.contains(&("-12.5".into(), TokenType::Float)));
}

#[test]
fn percent_heavy_message() {
    // The documented `%` hazard: scanning must still be faithful.
    let msg = "disk 93% used, inode 12% used";
    let t = Scanner::new().scan(msg);
    assert_eq!(t.reconstruct(), msg);
    assert!(t.tokens.iter().any(|t| t.text == "93%"));
}

#[test]
fn tabs_count_as_spaces() {
    let t = Scanner::new().scan("a\tb\tc");
    assert_eq!(t.tokens.len(), 3);
    assert!(t.tokens[1].is_space_before);
    assert_eq!(t.reconstruct(), "a b c");
}

#[test]
fn empty_brackets_and_doubled_punctuation() {
    let msg = "state [] {} (()) ;; ok";
    let t = Scanner::new().scan(msg);
    assert_eq!(t.reconstruct(), msg);
}

#[test]
fn java_class_names() {
    assert_eq!(
        type_of(
            "at org.apache.hadoop.hdfs.DFSClient run",
            "org.apache.hadoop.hdfs.DFSClient"
        ),
        TokenType::Literal
    );
}

#[test]
fn thread_ids_and_counters() {
    let toks = scan_types("Thread-42 spawned worker#7");
    assert!(toks.iter().any(|(t, _)| t == "Thread-42"));
    assert!(toks.iter().any(|(t, _)| t == "worker#7"));
}

#[test]
fn mixed_unicode_and_ascii() {
    let msg = "utilisateur déconnecté après 35 secondes";
    let t = Scanner::new().scan(msg);
    assert_eq!(t.reconstruct(), msg);
    assert!(t
        .tokens
        .iter()
        .any(|t| t.ty == TokenType::Integer && t.text == "35"));
}

#[test]
fn windows_paths_are_single_tokens() {
    let toks = scan_types(r"open C:\Windows\System32\drivers\etc\hosts failed");
    assert!(toks
        .iter()
        .any(|(t, _)| t == r"C:\Windows\System32\drivers\etc\hosts" || t == "C"));
    let msg = Scanner::new().scan(r"open C:\Windows\System32 failed");
    assert_eq!(msg.reconstruct(), r"open C:\Windows\System32 failed");
}

#[test]
fn path_fsm_types_unix_paths() {
    let t = Scanner::new().scan("read /var/log/messages and ./relative.sh and ~/conf");
    let paths: Vec<&str> = t
        .tokens
        .iter()
        .filter(|t| t.ty == TokenType::Path)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(paths, vec!["/var/log/messages", "./relative.sh", "~/conf"]);
}

#[test]
fn very_long_message_scans_in_bounded_tokens() {
    // The paper mentions an 864-token message; build something comparable.
    let long: String = (0..900).map(|i| format!("tok{i} ")).collect();
    let t = Scanner::new().scan(&long);
    assert_eq!(t.tokens.len(), 900);
}

#[test]
fn null_bytes_and_control_chars_do_not_panic() {
    let msg = "before \u{0} after \u{7} end";
    let t = Scanner::new().scan(msg);
    assert!(!t.tokens.is_empty());
}

#[test]
fn message_of_only_punctuation() {
    let t = Scanner::new().scan("[](){}<>;;,,''\"\"==");
    assert!(t.tokens.iter().all(|t| t.ty == TokenType::Literal));
    assert_eq!(t.reconstruct(), "[](){}<>;;,,''\"\"==");
}
