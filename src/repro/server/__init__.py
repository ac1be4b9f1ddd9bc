"""The Lixto Transformation Server: streaming integration of wrapped data."""

from .components import (
    Component,
    DatalogQueryComponent,
    DelivererComponent,
    Delivery,
    EmailDeliverer,
    FilterComponent,
    HtmlPortalDeliverer,
    IntegrationComponent,
    JoinComponent,
    RenameComponent,
    SmsDeliverer,
    SortComponent,
    TransformerComponent,
    WrapperComponent,
    XmlDeliverer,
    XmlSourceComponent,
)
from .monitoring import ChangeDetector, ChangeGatedDeliverer, ChangeReport
from .pipeline import Pipeline, PipelineError, TransformationServer

__all__ = [
    "ChangeDetector",
    "ChangeGatedDeliverer",
    "ChangeReport",
    "Component",
    "DatalogQueryComponent",
    "DelivererComponent",
    "Delivery",
    "EmailDeliverer",
    "FilterComponent",
    "HtmlPortalDeliverer",
    "IntegrationComponent",
    "JoinComponent",
    "Pipeline",
    "PipelineError",
    "RenameComponent",
    "SmsDeliverer",
    "SortComponent",
    "TransformationServer",
    "TransformerComponent",
    "WrapperComponent",
    "XmlDeliverer",
    "XmlSourceComponent",
]
