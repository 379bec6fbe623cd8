//! The canned §5 user session — the source of Figures 4, 5, and 6.
//!
//! "Typically, a user of this application starts by posing queries
//! about specific areas in the healthcare domain" — then browses the
//! Research coalition, reads the Royal Brisbane Hospital documentation,
//! and finally fetches `select * from medical_students`.

/// The statements of the §5 walk-through, in order.
pub const SECTION5_SCRIPT: &[&str] = &[
    "Find Coalitions With Information Medical Research;",
    "Connect To Coalition Research;",
    "Display SubClasses of Class Research;",
    "Display Instances of Class Research;",
    "Display Document of Instance Royal Brisbane Hospital Of Class Research;",
    "Display Access Information of Instance Royal Brisbane Hospital;",
    "Display Interface of Instance Royal Brisbane Hospital;",
    "Invoke ResearchProjects.Funding(ResearchProjects.Title, \
     (ResearchProjects.Title = 'AIDS and drugs')) On Instance Royal Brisbane Hospital;",
    "Submit Native 'select * from medical_students' To Instance Royal Brisbane Hospital;",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{build_healthcare, HealthcareDeployment};
    use webfindit::processor::{Processor, Response};
    use webfindit::session::BrowserSession;
    use webfindit::WfResult;
    use webfindit_relstore::Datum;

    /// Run the §5 session for a QUT researcher and return the session with
    /// its transcript filled in.
    fn run_section5_session(
        dep: &HealthcareDeployment,
    ) -> WfResult<(BrowserSession, Vec<Response>)> {
        let processor = Processor::new(dep.fed.clone());
        let mut session = BrowserSession::new("QUT Research");
        let mut responses = Vec::with_capacity(SECTION5_SCRIPT.len());
        for stmt in SECTION5_SCRIPT {
            let response = processor.submit(&mut session, stmt, None)?;
            session.record(*stmt, response.render());
            responses.push(response);
        }
        Ok((session, responses))
    }

    #[test]
    fn the_section5_walkthrough() {
        let dep = build_healthcare(1999).unwrap();
        let (session, responses) = run_section5_session(&dep).unwrap();

        // Find Coalitions With Information Medical Research → the QUT
        // researcher's local coalition Research answers (and possibly
        // Medical, which also deals with it).
        match &responses[0] {
            Response::Leads { leads, round_trips } => {
                assert!(
                    leads.iter().any(|l| l.coalition_name() == Some("Research")),
                    "{leads:?}"
                );
                assert_eq!(*round_trips, 0, "local resolution needs no network");
            }
            other => panic!("{other:?}"),
        }

        // Connect To Coalition Research.
        assert!(
            matches!(&responses[1], Response::Connected { coalition, .. }
            if coalition == "Research")
        );

        // Display SubClasses of Class Research → the refinement level.
        match &responses[2] {
            Response::Subclasses(names) => {
                assert_eq!(names, &["Cancer Research"]);
            }
            other => panic!("{other:?}"),
        }

        // Display Instances of Class Research → the four members.
        match &responses[3] {
            Response::Instances(names) => {
                assert_eq!(
                    names,
                    &[
                        "QUT Research",
                        "Queensland Cancer Fund",
                        "RMIT Medical Research",
                        "Royal Brisbane Hospital"
                    ]
                );
            }
            other => panic!("{other:?}"),
        }

        // Display Document → the RBH HTML page (Figure 5).
        match &responses[4] {
            Response::Document { formats, document } => {
                assert_eq!(formats.len(), 3, "text, HTML, applet (Figure 4 buttons)");
                assert!(document
                    .content
                    .contains("<h1>Royal Brisbane Hospital</h1>"));
            }
            other => panic!("{other:?}"),
        }

        // Display Access Information → the §2.2 advertisement.
        match &responses[5] {
            Response::AccessInfo(d) => {
                assert_eq!(d.location, "dba.icis.qut.edu.au");
                assert_eq!(
                    d.interface_names(),
                    vec!["ResearchProjects", "PatientHistory"]
                );
            }
            other => panic!("{other:?}"),
        }

        // Invoke Funding(…) → the seeded 250 000 budget.
        match &responses[7] {
            Response::Table(rs) => {
                assert_eq!(rs.columns, vec!["funding"]);
                assert_eq!(rs.rows, vec![vec![Datum::Double(250_000.0)]]);
            }
            other => panic!("{other:?}"),
        }

        // select * from medical_students → 20 rows, 4 columns (Figure 6).
        match &responses[8] {
            Response::Table(rs) => {
                assert_eq!(rs.columns, vec!["student_id", "name", "course", "year"]);
                assert_eq!(rs.rows.len(), 20);
            }
            other => panic!("{other:?}"),
        }

        // The transcript is complete.
        assert_eq!(session.transcript.len(), SECTION5_SCRIPT.len());
        dep.fed.shutdown();
    }
}
