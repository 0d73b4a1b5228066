//! The PowerPoint-like presentation model.

/// A shape placed on a slide.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// `"textbox"`, `"image"`, `"title"`, `"rectangle"`, ...
    pub kind: String,
    pub text: String,
    pub font_size: f64,
    /// Animation effect applied to the shape, if any.
    pub animation: Option<String>,
    /// Visual style applied to the shape (picture/shape quick styles).
    pub style: Option<String>,
}

impl Shape {
    /// A shape of the given kind with text.
    pub fn new(kind: impl Into<String>, text: impl Into<String>) -> Self {
        Shape {
            kind: kind.into(),
            text: text.into(),
            font_size: 18.0,
            animation: None,
            style: None,
        }
    }
}

/// One slide.
#[derive(Debug, Clone, PartialEq)]
pub struct Slide {
    pub background: Option<String>,
    pub shapes: Vec<Shape>,
    pub notes: String,
    pub transition: Option<String>,
    pub layout: String,
}

impl Slide {
    /// A slide with a title shape.
    pub fn titled(title: impl Into<String>) -> Self {
        Slide {
            background: None,
            shapes: vec![Shape::new("title", title)],
            notes: String::new(),
            transition: None,
            layout: "Title and Content".into(),
        }
    }
}

/// The presentation deck.
#[derive(Debug, Clone, PartialEq)]
pub struct Deck {
    pub slides: Vec<Slide>,
    /// Index of the slide open in the editor.
    pub current: usize,
    pub theme: String,
    /// Slide size: `"Standard (4:3)"` or `"Widescreen (16:9)"`.
    pub slide_size: String,
    /// Index of the currently selected shape on the current slide.
    pub selected_shape: Option<usize>,
}

impl Deck {
    /// A deck of `n` generated slides.
    pub fn with_slides(n: usize) -> Self {
        let slides = (0..n).map(|i| Slide::titled(format!("Slide {} title", i + 1))).collect();
        Deck {
            slides,
            current: 0,
            theme: "Office".into(),
            slide_size: "Widescreen (16:9)".into(),
            selected_shape: None,
        }
    }

    /// The current slide.
    pub fn current_slide(&self) -> &Slide {
        &self.slides[self.current]
    }

    /// Mutable current slide.
    pub fn current_slide_mut(&mut self) -> &mut Slide {
        &mut self.slides[self.current]
    }

    /// Sets the background of the current slide, or of all slides.
    pub fn set_background(&mut self, color: &str, all: bool) {
        if all {
            for s in &mut self.slides {
                s.background = Some(color.to_string());
            }
        } else {
            self.current_slide_mut().background = Some(color.to_string());
        }
    }

    /// Moves a slide from one index to another.
    pub fn reorder(&mut self, from: usize, to: usize) {
        if from < self.slides.len() && to < self.slides.len() && from != to {
            let s = self.slides.remove(from);
            self.slides.insert(to, s);
            if self.current == from {
                self.current = to;
            }
        }
    }

    /// The currently selected shape, if any.
    pub fn selected(&self) -> Option<&Shape> {
        self.selected_shape.and_then(|i| self.current_slide().shapes.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_slides_titles() {
        let d = Deck::with_slides(3);
        assert_eq!(d.slides.len(), 3);
        assert_eq!(d.slides[2].shapes[0].text, "Slide 3 title");
    }

    #[test]
    fn background_current_vs_all() {
        let mut d = Deck::with_slides(3);
        d.current = 1;
        d.set_background("Blue", false);
        assert_eq!(d.slides[1].background.as_deref(), Some("Blue"));
        assert_eq!(d.slides[0].background, None);
        d.set_background("Green", true);
        assert!(d.slides.iter().all(|s| s.background.as_deref() == Some("Green")));
    }

    #[test]
    fn reorder_moves_and_tracks_current() {
        let mut d = Deck::with_slides(4);
        d.current = 0;
        d.reorder(0, 2);
        assert_eq!(d.slides[2].shapes[0].text, "Slide 1 title");
        assert_eq!(d.current, 2);
        // Out-of-range reorder is a no-op.
        d.reorder(0, 99);
        assert_eq!(d.slides.len(), 4);
    }

    #[test]
    fn selected_shape_lookup() {
        let mut d = Deck::with_slides(1);
        assert!(d.selected().is_none());
        d.current_slide_mut().shapes.push(Shape::new("image", "logo.png"));
        d.selected_shape = Some(1);
        assert_eq!(d.selected().unwrap().kind, "image");
    }
}
