//! Verifier helpers: typed access to the app models behind a session.

use dmi_apps::{ExcelApp, PowerPointApp, WordApp};
use dmi_gui::Session;
use std::any::Any;

/// The Word model behind a session (panics on the wrong app).
pub fn word(s: &Session) -> &WordApp {
    (s.app() as &dyn Any).downcast_ref::<WordApp>().expect("session is not Word")
}

/// The Excel model behind a session.
pub fn excel(s: &Session) -> &ExcelApp {
    (s.app() as &dyn Any).downcast_ref::<ExcelApp>().expect("session is not Excel")
}

/// The PowerPoint model behind a session.
pub fn ppt(s: &Session) -> &PowerPointApp {
    (s.app() as &dyn Any).downcast_ref::<PowerPointApp>().expect("session is not PowerPoint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_apps::AppKind;

    #[test]
    fn downcasts_work() {
        let s = Session::new(AppKind::Word.launch_small());
        assert_eq!(word(&s).doc.paragraphs.len(), 12);
        let s = Session::new(AppKind::Excel.launch_small());
        assert_eq!(excel(&s).sheet.rows, 12);
        let s = Session::new(AppKind::PowerPoint.launch_small());
        assert_eq!(ppt(&s).deck.slides.len(), 5);
    }

    #[test]
    #[should_panic(expected = "not Word")]
    fn wrong_app_panics() {
        let s = Session::new(AppKind::Excel.launch_small());
        let _ = word(&s);
    }
}
