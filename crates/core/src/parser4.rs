//! Concrete syntax for SHOIN(D)4 — the `dl` Manchester-like syntax plus
//! the three inclusion kinds and negative role assertions:
//!
//! ```text
//! # material (exception-tolerant), internal (= classical SubClassOf),
//! # strong (contraposable):
//! Bird and (hasWing some Wing) MaterialSubClassOf Fly
//! Penguin SubClassOf Bird
//! Penguin StrongSubClassOf Vertebrate
//!
//! hasSon MaterialSubRoleOf hasChild
//! hasSon SubRoleOf hasChild
//! hasSon StrongSubRoleOf hasChild
//! age MaterialSubDataRoleOf attr      # and Sub/Strong variants
//!
//! not hasFriend(a, b)                  # negative role assertion ¬R(a,b)
//! ```
//!
//! Everything else (assertions, `Transitive(·)`, `DataRole:` declarations,
//! comments) is the `dl` syntax, one statement per line.

use crate::inclusion::InclusionKind;
use crate::kb4::{Axiom4, KnowledgeBase4};
use dl::name::DataRoleName;
use dl::parser::{parse_kb, ParseError};
use dl::Axiom;
use std::collections::BTreeSet;

fn adjust_line(mut e: ParseError, actual_line: usize) -> ParseError {
    e.line = actual_line;
    e
}

/// Parse one concept in the context of the accumulated `DataRole:`
/// declarations, by wrapping it in a dummy assertion.
fn parse_concept_with_decls(
    decls: &str,
    src: &str,
    line: usize,
) -> Result<dl::Concept, ParseError> {
    let wrapped = format!("{decls}__dummy : {src}");
    let kb = parse_kb(&wrapped).map_err(|e| adjust_line(e, line))?;
    match kb.axioms().last() {
        Some(Axiom::ConceptAssertion(_, c)) => Ok(c.clone()),
        _ => Err(ParseError {
            line,
            message: format!("expected a concept expression, got `{src}`"),
        }),
    }
}

fn parse_role_side(src: &str, line: usize) -> Result<dl::RoleExpr, ParseError> {
    let toks: Vec<&str> = src.split_whitespace().collect();
    match toks.as_slice() {
        [name] => Ok(dl::RoleExpr::named(*name)),
        ["inverse", name] => Ok(dl::RoleExpr::named(*name).inverse()),
        _ => Err(ParseError {
            line,
            message: format!("expected a role (optionally `inverse R`), got `{src}`"),
        }),
    }
}

/// Parse a SHOIN(D)4 knowledge base.
pub fn parse_kb4(input: &str) -> Result<KnowledgeBase4, ParseError> {
    // Pre-pass: gather DataRole declarations so concept sub-parses see
    // them regardless of position.
    let mut decls = String::new();
    for raw in input.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with("DataRole:") {
            decls.push_str(line);
            decls.push('\n');
        }
    }

    let mut axioms = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        // 4-valued concept inclusions.
        let mut handled = false;
        for (kw, kind) in [
            ("MaterialSubClassOf", InclusionKind::Material),
            ("StrongSubClassOf", InclusionKind::Strong),
        ] {
            if let Some(pos) = find_keyword(line, kw) {
                let (lhs, rhs) = (&line[..pos], &line[pos + kw.len()..]);
                let c = parse_concept_with_decls(&decls, lhs.trim(), lineno)?;
                let d = parse_concept_with_decls(&decls, rhs.trim(), lineno)?;
                axioms.push(Axiom4::ConceptInclusion(kind, c, d));
                handled = true;
                break;
            }
        }
        if handled {
            continue;
        }

        // 4-valued role inclusions.
        for (kw, kind) in [
            ("MaterialSubRoleOf", InclusionKind::Material),
            ("StrongSubRoleOf", InclusionKind::Strong),
        ] {
            if let Some(pos) = find_keyword(line, kw) {
                let r = parse_role_side(line[..pos].trim(), lineno)?;
                let s = parse_role_side(line[pos + kw.len()..].trim(), lineno)?;
                axioms.push(Axiom4::RoleInclusion(kind, r, s));
                handled = true;
                break;
            }
        }
        if handled {
            continue;
        }

        // 4-valued data-role inclusions.
        for (kw, kind) in [
            ("MaterialSubDataRoleOf", InclusionKind::Material),
            ("StrongSubDataRoleOf", InclusionKind::Strong),
        ] {
            if let Some(pos) = find_keyword(line, kw) {
                let u = line[..pos].trim();
                let v = line[pos + kw.len()..].trim();
                if u.split_whitespace().count() != 1 || v.split_whitespace().count() != 1 {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("expected `U {kw} V` with simple names"),
                    });
                }
                axioms.push(Axiom4::DataRoleInclusion(
                    kind,
                    dl::DataRoleName::new(u),
                    dl::DataRoleName::new(v),
                ));
                handled = true;
                break;
            }
        }
        if handled {
            continue;
        }

        // Negative role assertion: `not r(a, b)`.
        if let Some(rest) = line.strip_prefix("not ") {
            let rest = rest.trim();
            if let Some((role, args)) = rest.split_once('(') {
                let role = role.trim();
                if let Some(args) = args.strip_suffix(')') {
                    let parts: Vec<&str> = args.split(',').map(str::trim).collect();
                    if role.chars().all(|ch| ch.is_alphanumeric() || ch == '_')
                        && parts.len() == 2
                        && parts.iter().all(|p| {
                            !p.is_empty() && p.chars().next().is_some_and(char::is_alphabetic)
                        })
                    {
                        axioms.push(Axiom4::NegativeRoleAssertion(
                            dl::RoleName::new(role),
                            dl::IndividualName::new(parts[0]),
                            dl::IndividualName::new(parts[1]),
                        ));
                        continue;
                    }
                }
            }
            // Fall through: `not …` that is not a role assertion is a
            // syntax error at statement level.
            return Err(ParseError {
                line: lineno,
                message: "a statement cannot start with `not` (did you mean \
                          `not r(a, b)`?)"
                    .to_string(),
            });
        }

        if line.starts_with("DataRole:") || line.starts_with("Role:") {
            continue; // declarations already folded into `decls`
        }

        // Everything else: delegate to the classical parser with the
        // declarations in scope; classical inclusions read as internal.
        let wrapped = format!("{decls}{line}");
        let kb = parse_kb(&wrapped).map_err(|e| adjust_line(e, lineno))?;
        axioms.extend(
            kb.axioms()
                .iter()
                .map(|ax| Axiom4::from_classical(ax, InclusionKind::Internal)),
        );
    }
    Ok(KnowledgeBase4::from_axioms(axioms))
}

/// Parse one statement line under the `DataRole:` declarations made so
/// far (a data role only parses as one after its declaration). Returns
/// every axiom the line yields; callers that expect exactly one check
/// the count themselves.
pub fn parse_statement(
    stmt: &str,
    declared: &BTreeSet<DataRoleName>,
) -> Result<Vec<Axiom4>, ParseError> {
    let mut src = String::new();
    if !declared.is_empty() {
        src.push_str("DataRole:");
        for u in declared {
            src.push(' ');
            src.push_str(u.as_str());
        }
        src.push('\n');
    }
    src.push_str(stmt);
    Ok(parse_kb4(&src)?.axioms().to_vec())
}

/// Find a keyword as a whitespace-delimited token, returning its byte
/// offset.
fn find_keyword(line: &str, kw: &str) -> Option<usize> {
    let mut start = 0;
    for token in line.split_whitespace() {
        let pos = line[start..].find(token).expect("token came from line") + start;
        if token == kw {
            return Some(pos);
        }
        start = pos + token.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl::Concept;

    #[test]
    fn parses_all_three_inclusion_kinds() {
        let kb = parse_kb4(
            "A MaterialSubClassOf B
             C SubClassOf D
             E StrongSubClassOf F",
        )
        .unwrap();
        let kinds: Vec<InclusionKind> = kb
            .axioms()
            .iter()
            .filter_map(|ax| match ax {
                Axiom4::ConceptInclusion(k, ..) => Some(*k),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                InclusionKind::Material,
                InclusionKind::Internal,
                InclusionKind::Strong
            ]
        );
    }

    #[test]
    fn complex_sides_parse() {
        let kb = parse_kb4("Bird and (hasWing some Wing) MaterialSubClassOf Fly or Glide").unwrap();
        let Axiom4::ConceptInclusion(InclusionKind::Material, lhs, rhs) = &kb.axioms()[0] else {
            panic!()
        };
        assert_eq!(lhs.size(), 4);
        assert_eq!(rhs, &Concept::atomic("Fly").or(Concept::atomic("Glide")));
    }

    #[test]
    fn role_inclusions_with_inverse() {
        let kb = parse_kb4(
            "r MaterialSubRoleOf s
             inverse r StrongSubRoleOf t",
        )
        .unwrap();
        assert!(matches!(
            &kb.axioms()[0],
            Axiom4::RoleInclusion(InclusionKind::Material, ..)
        ));
        let Axiom4::RoleInclusion(InclusionKind::Strong, r, _) = &kb.axioms()[1] else {
            panic!()
        };
        assert!(r.is_inverse());
    }

    #[test]
    fn data_role_inclusions() {
        let kb = parse_kb4("u MaterialSubDataRoleOf v\nu StrongSubDataRoleOf w").unwrap();
        assert_eq!(kb.len(), 2);
    }

    #[test]
    fn negative_role_assertion() {
        let kb = parse_kb4("not hasFriend(a, b)").unwrap();
        assert_eq!(
            kb.axioms()[0],
            Axiom4::NegativeRoleAssertion(
                dl::RoleName::new("hasFriend"),
                dl::IndividualName::new("a"),
                dl::IndividualName::new("b"),
            )
        );
    }

    #[test]
    fn classical_statements_delegate() {
        let kb = parse_kb4(
            "Transitive(anc)
             a : A and not B
             r(a, b)
             a != b",
        )
        .unwrap();
        assert_eq!(kb.len(), 4);
        assert!(matches!(&kb.axioms()[0], Axiom4::Transitive(_)));
    }

    #[test]
    fn data_role_declarations_apply_to_material_lines() {
        let kb = parse_kb4(
            "DataRole: age
             Adult MaterialSubClassOf age some integer[18..]",
        )
        .unwrap();
        let Axiom4::ConceptInclusion(_, _, rhs) = &kb.axioms()[0] else {
            panic!()
        };
        assert!(matches!(rhs, Concept::DataSome(..)));
    }

    #[test]
    fn parse_statement_applies_declarations_and_returns_every_axiom() {
        let declared: BTreeSet<DataRoleName> = [DataRoleName::new("age")].into();
        // Only the declaration makes `age min 1` a datatype restriction.
        let stmt = "Adult MaterialSubClassOf age min 1";
        for (decls, data) in [(declared.clone(), true), (BTreeSet::new(), false)] {
            let axioms = parse_statement(stmt, &decls).unwrap();
            let [Axiom4::ConceptInclusion(_, _, rhs)] = axioms.as_slice() else {
                panic!("expected one inclusion, got {axioms:?}")
            };
            assert_eq!(matches!(rhs, Concept::DataAtLeast(1, _)), data, "{rhs:?}");
        }
        // Blank and comment lines yield no axiom; `EquivalentTo` two.
        assert!(parse_statement("# note", &declared).unwrap().is_empty());
        assert_eq!(
            parse_statement("A EquivalentTo B", &declared)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn error_line_numbers_survive_delegation() {
        let err = parse_kb4("A SubClassOf B\nA SubClassOf").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_kb4("A MaterialSubClassOf (B").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn stray_not_statement_rejected() {
        assert!(parse_kb4("not A SubClassOf B").is_err());
    }

    #[test]
    fn paper_example_3_tbox4() {
        let kb = parse_kb4(
            "Bird and (hasWing some Wing) MaterialSubClassOf Fly
             Penguin SubClassOf Bird
             Penguin SubClassOf hasWing some Wing
             Penguin SubClassOf not Fly
             tweety : Bird
             tweety : Penguin
             w : Wing
             hasWing(tweety, w)",
        )
        .unwrap();
        assert_eq!(kb.tbox().count(), 4);
        assert_eq!(kb.abox().count(), 4);
    }
}
